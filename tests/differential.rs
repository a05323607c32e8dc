//! Differential testing of the execution pipeline — the safety net for the
//! lowering refactor.
//!
//! A deterministic PRNG drives a small program generator over the builder
//! DSL (arithmetic, locals, `if`/`else`, nested loops, trapping division).
//! Every generated module must behave *identically* — results, traps,
//! monitor reports — across:
//!
//! * the default engine (the register form, with the byte interpreter
//!   for generic global probes and the runs a fuel slice cannot pay for)
//!   vs byte dispatch alone (the semantic reference);
//! * intrinsified vs generic probe sites;
//! * uninstrumented vs probe-instrumented (hotness counts every
//!   instruction, exercising probe sites in every run);
//! * unbounded vs fuel-bounded execution resumed across suspensions.
//!
//! Two seed-loop properties ride along: the shared numeric table against
//! native `i64` arithmetic, and random probe insert/remove sequences
//! against the overwritten probe bytes.

use std::sync::Arc;

use wizard::engine::store::Linker;
use wizard::engine::{
    CountProbe, Dispatch, EngineConfig, ModuleArtifact, Process, RunOutcome, Slot, Trap, Value,
};
use wizard::monitors::HotnessMonitor;
use wizard::suites::randgen::{random_module, Rng};
use wizard::wasm::Module;

fn configs() -> Vec<(&'static str, EngineConfig)> {
    vec![
        ("default", EngineConfig::default()),
        ("interp-bytecode", EngineConfig::interpreter_bytecode()),
        ("no-intrinsics", EngineConfig::builder().intrinsify(false).build()),
        (
            "no-intrinsics-bytecode",
            EngineConfig::builder().dispatch(Dispatch::Bytecode).intrinsify(false).build(),
        ),
    ]
}

fn run_plain(m: &Module, config: EngineConfig, arg: i32) -> Result<Vec<Value>, Trap> {
    let mut p = Process::new(m.clone(), config, &Linker::new()).expect("instantiates");
    p.invoke_export("run", &[Value::I32(arg)])
}

/// Results and traps are identical across every dispatcher and tier.
#[test]
fn random_programs_agree_across_dispatchers_and_tiers() {
    for seed in 0..40u64 {
        let m = random_module(seed);
        for arg in [0i32, 3, 17] {
            let reference = run_plain(&m, EngineConfig::interpreter_bytecode(), arg);
            for (name, config) in configs() {
                let got = run_plain(&m, config, arg);
                assert_eq!(got, reference, "seed {seed} arg {arg} config {name}");
            }
        }
    }
}

/// Probe-instrumented runs (hotness counts every instruction — every slot
/// probed) produce identical results AND identical reports
/// across dispatchers and tiers, and never perturb the program.
#[test]
fn random_programs_probed_reports_are_dispatcher_invariant() {
    for seed in 0..20u64 {
        let m = random_module(seed + 1000);
        let arg = 9i32;
        let reference = run_plain(&m, EngineConfig::interpreter_bytecode(), arg);
        let mut reports = Vec::new();
        for (name, config) in configs() {
            let mut p = Process::new(m.clone(), config, &Linker::new()).expect("instantiates");
            let mon = p.attach_monitor(HotnessMonitor::new()).expect("attach");
            let got = p.invoke_export("run", &[Value::I32(arg)]);
            assert_eq!(got, reference, "seed {seed} config {name}: probes perturbed the program");
            reports.push((name, mon.report()));
        }
        let (ref_name, ref_report) = &reports[0];
        for (name, report) in &reports[1..] {
            assert_eq!(report, ref_report, "seed {seed}: {name} report differs from {ref_name}");
        }
    }
}

/// Shared-artifact arm: two processes instantiated from one
/// `Arc<ModuleArtifact>` — one probed (every instruction) and then
/// detached, one left alone — must match an owned-module process
/// instruction-for-instruction and report-for-report, across every
/// dispatcher/tier and under fuel-bounded execution.
#[test]
fn random_programs_shared_artifact_processes_match_owned() {
    for seed in 0..12u64 {
        let m = random_module(seed + 3000);
        let arg = 8i32;
        let artifact = Arc::new(ModuleArtifact::new(m.clone()).expect("validates"));
        for (name, config) in configs() {
            // Reference: an owned-module process with the same monitor.
            let mut owned =
                Process::new(m.clone(), config.clone(), &Linker::new()).expect("instantiates");
            let mon_o = owned.attach_monitor(HotnessMonitor::new()).expect("attach");
            let expect = owned.invoke_export("run", &[Value::I32(arg)]);

            let mut probed =
                Process::instantiate(Arc::clone(&artifact), config.clone(), &Linker::new())
                    .expect("instantiates");
            let mut sibling =
                Process::instantiate(Arc::clone(&artifact), config.clone(), &Linker::new())
                    .expect("instantiates");

            // The probed sibling, fuel-bounded across tiny slices.
            let mon_p = probed.attach_monitor(HotnessMonitor::new()).expect("attach");
            let got = (|| {
                let mut out = probed.run_export_bounded("run", &[Value::I32(arg)], 29)?;
                while out == RunOutcome::OutOfFuel {
                    out = probed.resume(29)?;
                }
                Ok(out.done().expect("done"))
            })();
            assert_eq!(
                got, expect,
                "seed {seed} config {name}: shared-artifact result differs from owned"
            );
            assert_eq!(
                mon_p.report(),
                mon_o.report(),
                "seed {seed} config {name}: shared-artifact report differs from owned"
            );

            // The uninstrumented sibling: identical program behavior, zero
            // instrumentation observed, zero copies paid.
            let got_sib = sibling.invoke_export("run", &[Value::I32(arg)]);
            assert_eq!(got_sib, expect, "seed {seed} config {name}: sibling result differs");
            assert_eq!(sibling.stats().probe_fires, 0, "seed {seed} {name}: sibling saw probes");
            assert_eq!(sibling.resident_overlay_bytes(), 0);

            // Detach restores sharing: the probed process drops its copies
            // and rejoins the artifact's code.
            let handle = mon_p.handle();
            probed.detach_monitor(handle).expect("detach");
            assert_eq!(
                probed.resident_overlay_bytes(),
                0,
                "seed {seed} config {name}: detach left overlay copies resident"
            );
            if config.dispatch != Dispatch::Bytecode {
                let func = probed.module().export_func("run").unwrap();
                assert_eq!(
                    probed.code_identity(func).unwrap(),
                    sibling.code_identity(func).unwrap(),
                    "seed {seed} config {name}: detach did not rejoin the shared code"
                );
            }
        }
    }
}

/// Translation-validator arm: every random module's register form is
/// equivalent to its byte form — checked directly over the artifact,
/// through the engine-side `validate_lowering(true)` hook (which also
/// checks every instrumented form the engine lowers), and again after a
/// full probe insert/remove cycle (instrumentation must never perturb the
/// shared lowering).
#[test]
fn random_programs_lowerings_translation_validate() {
    wizard::analysis::install_engine_validator();

    // Direct arm: lower and validate a wide sweep of random modules.
    for seed in 0..500u64 {
        let m = random_module(seed + 4000);
        let artifact = ModuleArtifact::new(m).expect("validates");
        wizard::analysis::validate_register_lowering(&artifact)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }

    // Engine-hook arm: instantiate with validation enabled, probe every
    // run, execute, detach, and re-validate the shared lowering.
    for seed in 0..40u64 {
        let m = random_module(seed + 4000);
        let artifact = Arc::new(ModuleArtifact::new(m).expect("validates"));
        let config = EngineConfig::builder().validate_lowering(true).build();
        let mut p = Process::instantiate(Arc::clone(&artifact), config, &Linker::new())
            .unwrap_or_else(|e| panic!("seed {seed}: validated instantiate failed: {e}"));
        assert_eq!(p.stats().lowering_validations, 1, "seed {seed}");
        let mon = p.attach_monitor(HotnessMonitor::new()).expect("attach");
        let _ = p.invoke_export("run", &[Value::I32(5)]);
        p.detach_monitor(mon.handle()).expect("detach");
        wizard::analysis::validate_register_lowering(&artifact)
            .unwrap_or_else(|e| panic!("seed {seed} after probe cycle: {e}"));
    }
}

/// Fuel-bounded runs suspended and resumed across tiny slices finish with
/// the same results, traps, and monitor reports as unbounded runs.
#[test]
fn random_programs_bounded_runs_are_transparent() {
    for seed in 0..12u64 {
        let m = random_module(seed + 2000);
        let arg = 7i32;
        for (name, config) in configs() {
            let mut unbounded =
                Process::new(m.clone(), config.clone(), &Linker::new()).expect("instantiates");
            let mon_u = unbounded.attach_monitor(HotnessMonitor::new()).expect("attach");
            let expect = unbounded.invoke_export("run", &[Value::I32(arg)]);

            let mut bounded =
                Process::new(m.clone(), config, &Linker::new()).expect("instantiates");
            let mon_b = bounded.attach_monitor(HotnessMonitor::new()).expect("attach");
            let got = (|| {
                let mut out = bounded.run_export_bounded("run", &[Value::I32(arg)], 37)?;
                while out == RunOutcome::OutOfFuel {
                    out = bounded.resume(37)?;
                }
                Ok(out.done().expect("done"))
            })();
            assert_eq!(got, expect, "seed {seed} config {name}: bounded result differs");
            assert_eq!(
                mon_b.report(),
                mon_u.report(),
                "seed {seed} config {name}: bounded report differs"
            );
        }
    }
}

/// Shared numeric semantics: the binop table every tier dispatches through
/// matches native `i64` arithmetic on random operands.
#[test]
fn i64_numeric_reference() {
    use wizard::engine::numeric::binop;
    use wizard::wasm::opcodes as op;
    let mut rng = Rng::new(0x1664);
    // One operand in eight is in -4..=3, so zero divisors, identities and
    // small rotate counts all occur.
    let mut operand = || match rng.next() as i64 {
        x if x & 7 == 0 => x >> 61,
        x => x,
    };
    for _ in 0..4_000 {
        let (a, b) = (operand(), operand());
        let (sa, sb) = (Slot::from_i64(a), Slot::from_i64(b));
        assert_eq!(binop(op::I64_ADD, sa, sb).unwrap().i64(), a.wrapping_add(b), "{a} + {b}");
        assert_eq!(binop(op::I64_MUL, sa, sb).unwrap().i64(), a.wrapping_mul(b), "{a} * {b}");
        assert_eq!(binop(op::I64_XOR, sa, sb).unwrap().i64(), a ^ b, "{a} ^ {b}");
        let rotl = (a as u64).rotate_left((b as u32) & 63);
        assert_eq!(binop(op::I64_ROTL, sa, sb).unwrap().u64(), rotl, "{a} rotl {b}");
        let rem = binop(op::I64_REM_U, sa, sb).map(|s| s.u64()).ok();
        assert_eq!(rem, (a as u64).checked_rem(b as u64), "{a} rem_u {b}");
    }
}

/// What one play of a churn schedule leaves behind.
#[derive(Debug, PartialEq)]
struct ChurnOutcome {
    result: Result<Vec<Value>, Trap>,
    /// Fires of every `CountProbe` the schedule inserted, in schedule order.
    counts: Vec<u64>,
    /// `has_probe_byte` of every instruction, in code order.
    bytes: Vec<bool>,
}

/// Plays seed `seed`'s churn schedule on `config`: random insert/remove
/// before the run, then — from inside a firing probe, so at the same
/// execution points on every tier — inserts and removals *during* it,
/// ending with the churning probe removing itself. With `slice`, the run
/// is cut into fuel slices, and every cut also inserts a probe at a random
/// instruction and removes the previous cut's (they count nothing, so where
/// the cuts fall cannot show in the outcome).
fn play_churn(m: &Module, seed: u64, config: EngineConfig, slice: Option<u64>) -> ChurnOutcome {
    use std::cell::RefCell;
    use std::rc::Rc;
    use wizard::engine::{ClosureProbe, EmptyProbe, ProbeId};

    let func = m.export_func("run").unwrap();
    let pcs: Vec<u32> = wizard::wasm::instr::InstrIter::new(&m.func_body(func).unwrap().code)
        .map(|instr| instr.unwrap().pc)
        .collect();
    let pick = |rng: &mut Rng| pcs[rng.below(pcs.len() as u64) as usize];
    let mut rng = Rng::new(seed);
    let mut p = Process::new(m.clone(), config, &Linker::new()).unwrap();

    let mut counters: Vec<CountProbe> = Vec::new();
    let mut live: Vec<(ProbeId, u32, CountProbe)> = Vec::new();
    for _ in 0..=rng.below(40) {
        if live.is_empty() || rng.below(2) == 0 {
            let pc = pick(&mut rng);
            let probe = CountProbe::new();
            let id = p.add_local_probe_val(func, pc, probe.clone()).unwrap();
            counters.push(probe.clone());
            live.push((id, pc, probe));
        } else {
            let (id, pc, _) = live.swap_remove(rng.below(live.len() as u64) as usize);
            p.remove_probe(id).unwrap();
            let still = live.iter().any(|(_, q, _)| *q == pc);
            assert_eq!(p.has_probe_byte(func, pc), still, "seed {seed}: pc {pc} after remove");
        }
        for (_, pc, _) in &live {
            assert!(p.has_probe_byte(func, *pc), "seed {seed}: live pc {pc} lost its byte");
        }
    }

    // The in-run script: `Some(pc)` inserts a counter there, `None` removes
    // the oldest counter the script inserted that is still installed.
    let script: Vec<Option<u32>> =
        (0..rng.below(12)).map(|_| (rng.below(3) != 0).then(|| pick(&mut rng))).collect();
    let inserted: Rc<RefCell<Vec<CountProbe>>> = Rc::default();
    let churner_id = Rc::new(std::cell::Cell::new(None));
    let (ins, me) = (Rc::clone(&inserted), Rc::clone(&churner_id));
    let mut installed: std::collections::VecDeque<ProbeId> = Default::default();
    let mut step = 0;
    let churner = ClosureProbe::shared(move |ctx| {
        match script.get(step) {
            Some(Some(pc)) => {
                let probe = CountProbe::new();
                ins.borrow_mut().push(probe.clone());
                let probe = Rc::new(RefCell::new(probe));
                installed.push_back(ctx.insert_local_probe(func, *pc, probe).unwrap());
            }
            Some(None) => installed.pop_front().into_iter().for_each(|id| ctx.remove_probe(id)),
            None => ctx.remove_probe(me.get().expect("set before the run")),
        }
        step += 1;
    });
    churner_id.set(Some(p.add_local_probe(func, pick(&mut rng), churner).unwrap()));

    let arg = [Value::I32(9)];
    let mut toggled = None;
    let result = match slice {
        None => p.invoke_export("run", &arg),
        Some(fuel) => (|| {
            let mut out = p.run_export_bounded("run", &arg, fuel)?;
            while out == RunOutcome::OutOfFuel {
                let pc = pick(&mut rng);
                let next = p.add_local_probe_val(func, pc, EmptyProbe).unwrap();
                assert!(p.has_probe_byte(func, pc), "seed {seed}: pc {pc} between slices");
                toggled.replace(next).into_iter().for_each(|id| p.remove_probe(id).unwrap());
                out = p.resume(fuel)?;
            }
            Ok(out.done().expect("done"))
        })(),
    };
    toggled.into_iter().for_each(|id| p.remove_probe(id).unwrap());

    for (_, pc, probe) in &live {
        let (_, _, first) = live.iter().find(|(_, q, _)| q == pc).unwrap();
        assert_eq!(probe.cell().get(), first.cell().get(), "seed {seed}: pc {pc} fire counts");
    }
    counters.extend(inserted.borrow().iter().cloned());
    ChurnOutcome {
        result,
        counts: counters.iter().map(CountProbe::count).collect(),
        bytes: pcs.iter().map(|pc| p.has_probe_byte(func, *pc)).collect(),
    }
}

/// Random probe insert/remove sequences over random programs: a site
/// carries the probe byte exactly while some probe is registered there,
/// probes sharing a site count the same fires, and the program result is
/// never perturbed — before the run and while it executes, and the same on
/// the byte-walking reference interpreter, in compiled code, and in
/// compiled code that is suspended and re-bound between fuel slices.
#[test]
fn probe_churn_is_consistent() {
    for seed in 0..64u64 {
        let m = random_module(seed + 5000);
        let expect = run_plain(&m, EngineConfig::default(), 9);
        let reference = play_churn(&m, seed, EngineConfig::interpreter_bytecode(), None);
        assert_eq!(reference.result, expect, "seed {seed}: probes perturbed the program");
        let generic = EngineConfig::builder().intrinsify(false).build();
        for (name, config, slice) in [
            ("default", EngineConfig::default(), None),
            ("default sliced", EngineConfig::default(), Some(41)),
            ("default finely sliced", EngineConfig::default(), Some(7)),
            ("no-intrinsics finely sliced", generic, Some(7)),
        ] {
            let got = play_churn(&m, seed, config, slice);
            assert_eq!(got, reference, "seed {seed} config {name}");
        }
    }
}
