//! Exactness of the run counters: `HotnessMonitor::new()` — one counter
//! per straight-line run, expanded to per-site rows — must report exactly
//! what `HotnessMonitor::with_mode(ProbeMode::Global)` counts instruction
//! by instruction, wherever execution stops and whenever the monitor comes
//! and goes: traps mid-run, fuel slices with a detach/re-attach at every
//! boundary, cancelled and dropped suspensions, invocations after a trap —
//! on every dispatcher and tier.
//!
//! `CoverageMonitor` — one self-removing probe per run, marking the whole
//! run — is held to the same oracle under the same schedules: in every
//! session its covered set is exactly the set of sites the oracle counted.
//!
//! Global `CountProbe`s — bumped per run by the register form, per
//! instruction by the byte interpreter — are held to their own count under
//! byte dispatch alone, under the same schedules, inserted and removed
//! while suspended and from inside events.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

use wizard_analysis::cfg::Cfg;
use wizard_engine::store::Linker;
use wizard_engine::{
    ClosureProbe, CountProbe, EngineConfig, Location, ModuleArtifact, Monitor, ProbeId, Process,
    RunOutcome, Shims, Value,
};
use wizard_monitors::{CoverageMonitor, HotnessMonitor, ProbeMode};
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

type Covered = BTreeSet<Location>;

/// Every configuration under test. A metered run stops at the same
/// instruction as the byte interpreter's on every one of them: fuel is
/// billed by the reference's count in every tier.
fn configs() -> Vec<(&'static str, EngineConfig)> {
    let mut v = vec![
        ("interpreter_bytecode", EngineConfig::interpreter_bytecode()),
        ("default", EngineConfig::default()),
        ("no_intrinsics", EngineConfig::builder().intrinsify(false).build()),
    ];
    for (_, c) in &mut v {
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
/// different way: spellings of a division by zero whose operands the
/// register form reads from locals, folds as immediates or computes,
/// an out-of-bounds load, `unreachable`, a trap three calls deep, and
/// call-stack exhaustion. Every trapping instruction has instructions of
/// its own run before and after it.
fn trap_program() -> Program {
    let mut mb = ModuleBuilder::new();
    mb.memory(1);
    // `local.get; local.get; div` — both operands read from a local.
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.nop().local_get(0).local_get(0).i32_div_u().i32_const(5).i32_add().nop();
    mb.add_func("div_get_get", f);
    // `const; local.get; div` — a folded left operand.
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.nop().i32_const(7).local_get(0).i32_div_u().i32_const(5).i32_add().nop();
    mb.add_func("div_get", f);
    // `local.get; const 0; div` — a folded right operand.
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
        for (name, config) in configs() {
            let got = whole_run(program, &config, ProbeMode::Local);
            assert_eq!(got.0, expect.0, "{} on {name}: results", program.name);
            assert_eq!(got.1, expect.1, "{} on {name}: per-site counts", program.name);
        }
    }
}

/// How a sliced run hands the monitor from one session to the next.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Sessions {
    /// A fresh monitor per session.
    Fresh,
    /// One instance, detached and re-attached: it accumulates.
    Reattached,
}

/// Runs `program` in `fuel`-sized slices, detaching the monitor at
/// *every* slice boundary and attaching it again or a fresh `new()`, and
/// returns what `read` makes of the monitor at the end of each session.
fn sessions<M: Monitor + 'static, T>(
    program: &Program,
    config: &EngineConfig,
    fuel: u64,
    how: Sessions,
    new: impl Fn() -> M,
    read: impl Fn(&M) -> T,
) -> (Vec<String>, Vec<T>) {
    let mut p = program.process(config);
    let mut monitor = Rc::new(RefCell::new(new()));
    let mut handle = p.attach_monitor_dyn(monitor.clone()).expect("attach");
    let (mut results, mut reads) = (Vec::new(), Vec::new());
    for (f, n) in &program.calls {
        let mut out = p.run_export_bounded(f, &[Value::I32(*n)], fuel);
        while let Ok(RunOutcome::OutOfFuel) = out {
            p.detach_monitor(handle).expect("detach");
            reads.push(read(&monitor.borrow()));
            if how == Sessions::Fresh {
                monitor = Rc::new(RefCell::new(new()));
            }
            handle = p.attach_monitor_dyn(monitor.clone()).expect("attach");
            out = p.resume(fuel);
        }
        results.push(outcome(out.map(|o| o.done().expect("not out of fuel"))));
    }
    p.detach_monitor(handle).expect("detach");
    assert_eq!(p.probed_location_count(), 0);
    reads.push(read(&monitor.borrow()));
    (results, reads)
}

/// The per-site rows of a sliced run under the run counters: the sum of
/// the sessions' rows, or the rows the one re-attached instance
/// accumulated.
fn sliced_run(
    program: &Program,
    config: &EngineConfig,
    fuel: u64,
    how: Sessions,
) -> (Vec<String>, Counts) {
    let (results, mut reads) = sessions(program, config, fuel, how, HotnessMonitor::new, rows);
    let total = match how {
        Sessions::Fresh => reads.into_iter().fold(Counts::new(), |mut total, r| {
            add(&mut total, r);
            total
        }),
        Sessions::Reattached => reads.pop().expect("a last session"),
    };
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
        for (name, config) in configs() {
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

/// Runs `program`'s first call whole when `after_first`, then its next call
/// for one `fuel` slice under `monitor`; if that suspends, abandons it and
/// returns what `read` makes of the monitor. `None` if it finished within
/// the slice.
fn abandoned_run<M: Monitor + 'static, T>(
    program: &Program,
    config: &EngineConfig,
    (monitor, read): (M, impl Fn(&M) -> T),
    after_first: bool,
    fuel: u64,
    how: Abandon,
) -> Option<(Location, T)> {
    let mut p = program.process(config);
    let m = p.attach_monitor(monitor).expect("attach");
    let mut calls = program.calls.iter();
    if after_first {
        let (f, n) = calls.next().expect("a first call");
        let _ = p.invoke_export(f, &[Value::I32(*n)]);
    }
    let (f, n) = calls.next()?;
    if p.run_export_bounded(f, &[Value::I32(*n)], fuel) != Ok(RunOutcome::OutOfFuel) {
        return None;
    }
    let at = p.suspended_at().expect("suspended");
    match how {
        Abandon::Cancel => assert!(p.cancel_suspended()),
        Abandon::Drop => drop(p),
        Abandon::Detach => p.detach_monitor(m.handle()).expect("detach"),
    }
    let read = read(&m.borrow());
    Some((at, read))
}

/// (c): a cancelled suspension, a dropped process and a mid-run detach all
/// leave exactly the executed prefix — on every configuration equal to
/// each other and to the oracle's prefix.
#[test]
fn abandoned_suspensions_keep_only_the_executed_prefix() {
    let mut programs = fixed_programs();
    programs.extend(random_programs().into_iter().step_by(5));
    for program in &programs {
        for fuel in [5, 37, 113] {
            let global = (HotnessMonitor::with_mode(ProbeMode::Global), rows);
            let oracle =
                abandoned_run(program, &oracle_config(), global, false, fuel, Abandon::Cancel);
            for (name, config) in configs() {
                let what = format!("{} on {name}, fuel {fuel}", program.name);
                let local = || (HotnessMonitor::new(), rows);
                let cancel = abandoned_run(program, &config, local(), false, fuel, Abandon::Cancel);
                for how in [Abandon::Drop, Abandon::Detach] {
                    let other = abandoned_run(program, &config, local(), false, fuel, how);
                    assert_eq!(other, cancel, "{what}: {how:?} vs cancel");
                }
                assert_eq!(cancel, oracle, "{what}: vs the oracle");
            }
        }
    }
}

/// The sites the oracle counted.
fn counted(m: &HotnessMonitor) -> Covered {
    rows(m).into_keys().collect()
}

fn covered(m: &CoverageMonitor) -> Covered {
    m.covered().into_iter().collect()
}

/// Coverage attached throughout covers what the oracle counted — traps
/// mid-run included, and the invocations that follow them.
#[test]
fn whole_run_coverage_matches_the_global_oracle_on_every_tier() {
    for program in fixed_programs().iter().chain(&random_programs()) {
        let (results, counts) = whole_run(program, &oracle_config(), ProbeMode::Global);
        let expect: Covered = counts.into_keys().collect();
        for (name, config) in configs() {
            let mut p = program.process(&config);
            let m = p.attach_monitor(CoverageMonitor::new()).expect("attach");
            let got: Vec<String> = program
                .calls
                .iter()
                .map(|(f, n)| outcome(p.invoke_export(f, &[Value::I32(*n)])))
                .collect();
            assert_eq!(got, results, "{} on {name}: results", program.name);
            assert_eq!(covered(&m.borrow()), expect, "{} on {name}: covered", program.name);
            // Probes are left on the runs not wholly covered, and on the
            // leader of the last pass, which no later fire proved complete.
            let runs = p.artifact().runs();
            let open = (0..runs.len())
                .filter(|&r| runs.run(r).any(|s| !expect.contains(&runs.sites()[s])))
                .count();
            let left = p.probed_location_count();
            assert!(open <= left && left <= open + 1, "{} on {name}: {left} probes", program.name);
        }
    }
}

/// Fuel 1, 7, 13 and 101, scaled as for the run counters: a fresh
/// coverage monitor per session covers exactly what the oracle counted in
/// that session, and (on every other program) one instance re-attached at
/// every boundary covers the union of the sessions so far.
fn coverage_sessions_match_the_oracle(programs: &[Program], fuels: impl Fn(usize) -> Vec<u64>) {
    for (k, program) in programs.iter().enumerate() {
        let executed: u64 =
            whole_run(program, &oracle_config(), ProbeMode::Global).1.values().sum();
        let sites = ModuleArtifact::new(program.module.clone()).expect("validates");
        let slices = (600_000 / sites.instruction_sites().len() as u64).clamp(100, 3_000);
        let scale = (executed / slices) | 1;
        for fuel in fuels(k).into_iter().map(|f| f * scale) {
            let global = || HotnessMonitor::with_mode(ProbeMode::Global);
            let (results, mut expect) =
                sessions(program, &oracle_config(), fuel, Sessions::Fresh, global, counted);
            let how = if k % 2 == 0 { Sessions::Reattached } else { Sessions::Fresh };
            if how == Sessions::Reattached {
                expect = expect
                    .iter()
                    .scan(Covered::new(), |all, s| {
                        all.extend(s);
                        Some(all.clone())
                    })
                    .collect();
            }
            for (name, config) in configs() {
                let what = format!("{} on {name}, fuel {fuel}, {how:?}", program.name);
                let got = sessions(program, &config, fuel, how, CoverageMonitor::new, covered);
                assert_eq!(got.0, results, "{what}: results");
                assert_eq!(got.1, expect, "{what}: covered per session");
            }
        }
    }
}

#[test]
fn coverage_sessions_match_the_oracle_on_the_fixed_programs() {
    coverage_sessions_match_the_oracle(&fixed_programs(), |_| vec![1, 7, 13, 101]);
}

/// The random programs rotate through the four fuels.
#[test]
fn coverage_sessions_match_the_oracle_on_random_programs() {
    coverage_sessions_match_the_oracle(&random_programs(), |k| vec![[1, 7, 13, 101][k % 4]]);
}

/// A cancelled suspension, a dropped process and a mid-run detach all
/// leave coverage of exactly the executed prefix — also after a first
/// call that trapped mid-run in the run the suspension lands in.
#[test]
fn abandoned_suspensions_cover_only_the_executed_prefix() {
    let mut programs = fixed_programs();
    programs.extend(random_programs().into_iter().step_by(5));
    for program in &programs {
        for after_first in [false, true] {
            for fuel in [1, 2, 3, 5, 37, 113] {
                let global = (HotnessMonitor::with_mode(ProbeMode::Global), counted);
                let (cancel, config) = (Abandon::Cancel, oracle_config());
                let expect = abandoned_run(program, &config, global, after_first, fuel, cancel);
                for (name, config) in configs() {
                    let what = format!(
                        "{} on {name}, fuel {fuel}, after first call: {after_first}",
                        program.name
                    );
                    for how in [Abandon::Cancel, Abandon::Drop, Abandon::Detach] {
                        let m = (CoverageMonitor::new(), covered);
                        let got = abandoned_run(program, &config, m, after_first, fuel, how);
                        assert_eq!(got, expect, "{what}: {how:?}");
                    }
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
    for (name, config) in configs() {
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

// ---- global `Count` probes ----

/// Each call's outcome, the count after each call, then the final count
/// of every global `CountProbe` the schedule installed, in insertion order.
type GlobalCounts = (Vec<String>, Vec<u64>);

/// Installs a fresh global `CountProbe`, keeping its cell.
fn insert_global_count(p: &mut Process, cells: &mut Vec<Rc<Cell<u64>>>) -> ProbeId {
    let probe = CountProbe::new();
    cells.push(probe.cell());
    p.add_global_probe_val(probe).expect("a global probe always lands")
}

/// `program` under a global `CountProbe` attached throughout: unbounded
/// with no `fuel`, else in `fuel` slices — with `swap`, removing it and
/// inserting a fresh one at every slice boundary, while the run is
/// suspended mid-run.
fn global_count_run(
    program: &Program,
    config: &EngineConfig,
    fuel: Option<u64>,
    swap: bool,
) -> GlobalCounts {
    let mut p = program.process(config);
    let mut cells = Vec::new();
    let mut id = insert_global_count(&mut p, &mut cells);
    let (mut results, mut counts) = (Vec::new(), Vec::new());
    for (f, n) in &program.calls {
        let args = [Value::I32(*n)];
        let out = match fuel {
            None => p.invoke_export(f, &args),
            Some(fuel) => {
                let mut out = p.run_export_bounded(f, &args, fuel);
                while let Ok(RunOutcome::OutOfFuel) = out {
                    if swap {
                        p.remove_probe(id).expect("installed");
                        id = insert_global_count(&mut p, &mut cells);
                    }
                    out = p.resume(fuel);
                }
                out.map(|o| o.done().expect("not out of fuel"))
            }
        };
        results.push(outcome(out));
        counts.push(cells.last().expect("one is installed").get());
    }
    counts.extend(cells.iter().map(|c| c.get()));
    (results, counts)
}

/// Global `CountProbe`s count exactly what they count under byte dispatch
/// alone — where the instrumented table bumps them instruction by
/// instruction — on every configuration: the register form adds each
/// run at its first instruction (less the implicit return, which fires no
/// global probe), traps and demotions take back what never executed, and
/// a probe inserted or removed while a run is suspended mid-run counts
/// from exactly that instruction. Unbounded and at fuel 1, 7, 13 and 101
/// (scaled as for the run counters), attached throughout and swapped at
/// every slice boundary; the byte-dispatch count is itself held to the
/// generic global oracle's total.
fn global_counts_match_the_byte_interpreter(
    programs: &[Program],
    fuels: impl Fn(usize) -> Vec<u64>,
) {
    for (k, program) in programs.iter().enumerate() {
        let expect = global_count_run(program, &oracle_config(), None, false);
        let oracle = whole_run(program, &oracle_config(), ProbeMode::Global);
        let executed: u64 = oracle.1.values().sum();
        assert_eq!(expect.0, oracle.0, "{}: results", program.name);
        assert_eq!(expect.1.last(), Some(&executed), "{}: vs the generic oracle", program.name);
        let sites = ModuleArtifact::new(program.module.clone()).expect("validates");
        let slices = (600_000 / sites.instruction_sites().len() as u64).clamp(100, 3_000);
        let scale = (executed / slices) | 1;
        let sliced: Vec<(u64, bool, GlobalCounts)> = fuels(k)
            .into_iter()
            .flat_map(|f| [(f * scale, false), (f * scale, true)])
            .map(|(fuel, swap)| {
                (fuel, swap, global_count_run(program, &oracle_config(), Some(fuel), swap))
            })
            .collect();
        for (fuel, swap, reference) in &sliced {
            if !swap {
                assert_eq!(
                    *reference, expect,
                    "{}, fuel {fuel}: slicing is invisible",
                    program.name
                );
            }
        }
        for (name, config) in configs() {
            let got = global_count_run(program, &config, None, false);
            assert_eq!(got, expect, "{} on {name}: unbounded", program.name);
            for (fuel, swap, reference) in &sliced {
                let got = global_count_run(program, &config, Some(*fuel), *swap);
                let what = format!("{} on {name}, fuel {fuel}, swapped: {swap}", program.name);
                assert_eq!(got, *reference, "{what}");
            }
        }
    }
}

#[test]
fn global_counts_match_the_byte_interpreter_on_the_fixed_programs() {
    global_counts_match_the_byte_interpreter(&fixed_programs(), |_| vec![1, 7, 13, 101]);
}

/// The random programs rotate through the four fuels.
#[test]
fn global_counts_match_the_byte_interpreter_on_random_programs() {
    global_counts_match_the_byte_interpreter(&random_programs(), |k| vec![[1, 7, 13, 101][k % 4]]);
}

/// `program` with a generic probe on every third instruction that inserts
/// a global `CountProbe` on one fire and removes it on the next — so
/// counts arrive and leave in the middle of register-form runs, from
/// inside an event — unbounded with no `fuel`, else in `fuel` slices.
/// Returns the outcomes and every inserted probe's final count.
fn toggled_global_count_run(
    program: &Program,
    config: &EngineConfig,
    fuel: Option<u64>,
) -> (Vec<String>, Vec<u64>) {
    let mut p = program.process(config);
    let cells: Rc<RefCell<Vec<Rc<Cell<u64>>>>> = Rc::default();
    let live: Rc<Cell<Option<ProbeId>>> = Rc::default();
    let sites = Arc::clone(p.artifact().instruction_sites());
    for site in sites.iter().skip(1).step_by(3) {
        let (cells, live) = (Rc::clone(&cells), Rc::clone(&live));
        let toggle = ClosureProbe::shared(move |ctx| match live.take() {
            Some(id) => ctx.remove_probe(id),
            None => {
                let probe = CountProbe::new();
                cells.borrow_mut().push(probe.cell());
                let id = ctx.insert_global_probe(Rc::new(RefCell::new(probe)));
                live.set(Some(id.expect("a global probe always lands")));
            }
        });
        p.add_local_probe(site.func, site.pc, toggle).expect("an instruction");
    }
    let mut results = Vec::new();
    for (f, n) in &program.calls {
        let args = [Value::I32(*n)];
        let out = match fuel {
            None => p.invoke_export(f, &args),
            Some(fuel) => {
                let mut out = p.run_export_bounded(f, &args, fuel);
                while let Ok(RunOutcome::OutOfFuel) = out {
                    out = p.resume(fuel);
                }
                out.map(|o| o.done().expect("not out of fuel"))
            }
        };
        results.push(outcome(out));
    }
    let counts = cells.borrow().iter().map(|c| c.get()).collect();
    (results, counts)
}

/// Global counts inserted and removed by probes firing mid-run — in the
/// register form, at a site after the run was charged to the counts then
/// installed — still count exactly what byte dispatch counts, unbounded
/// and in fuel slices (traps included).
#[test]
fn global_counts_toggled_mid_run_match_the_byte_interpreter() {
    let mut programs = fixed_programs();
    programs.extend(random_programs().into_iter().step_by(5));
    for program in &programs {
        for fuel in [None, Some(7), Some(101)] {
            let expect = toggled_global_count_run(program, &oracle_config(), fuel);
            for (name, config) in configs() {
                let got = toggled_global_count_run(program, &config, fuel);
                assert_eq!(got, expect, "{} on {name}, fuel {fuel:?}", program.name);
            }
        }
    }
}
