//! A Richards-style OS-scheduler benchmark: the famously indirect-call-
//! heavy workload used for the paper's JVMTI comparison (§6.4).
//!
//! Four task kinds (idle, worker, handler, device) are dispatched through
//! a funcref table via `call_indirect`; tasks exchange "packets" through a
//! ring queue in linear memory and call shared queue helpers directly.
//! This preserves the original benchmark's call structure (dense indirect
//! calls + short direct helper calls per scheduling step) in a compact
//! form; see DESIGN.md for the substitution note.

use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::module::Module;
use wizard_wasm::types::BlockType;
use wizard_wasm::types::ValType::I32;

const QUEUE: i32 = 0x100; // ring buffer of 64 i32 packets
const QMASK: i32 = 63;
const STATE: i32 = 0x400; // per-task i32 state words (4 tasks)

/// The built module, memoized: construction is deterministic, so fleets
/// spawning many Richards jobs clone the cached module instead of
/// re-assembling it per job.
static MODULE: std::sync::LazyLock<Module> = std::sync::LazyLock::new(build_clean);

/// Builds the Richards-style module (cached). `run(loops) -> i32` returns
/// the scheduler checksum after `loops` scheduling steps.
pub fn module() -> Module {
    MODULE.clone()
}

fn build_clean() -> Module {
    let mut mb = ModuleBuilder::new();
    mb.memory(1);
    mb.table(4);

    // qpkt(v) -> old_head: enqueue a packet word.
    let qpkt = {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let h = f.local(I32);
        f.i32_const(STATE + 16).i32_load(0).local_set(h);
        f.local_get(h).i32_const(QMASK).i32_and().i32_const(4).i32_mul().i32_const(QUEUE).i32_add();
        f.local_get(0);
        f.i32_store(0);
        f.i32_const(STATE + 16);
        f.local_get(h).i32_const(1).i32_add();
        f.i32_store(0);
        f.local_get(h);
        mb.add_private_func("qpkt", f)
    };

    // takepkt() -> packet word (0 if queue empty).
    let takepkt = {
        let mut f = FuncBuilder::new(&[], &[I32]);
        let t = f.local(I32);
        f.i32_const(STATE + 20).i32_load(0).local_set(t);
        // if tail >= head: return 0
        f.local_get(t).i32_const(STATE + 16).i32_load(0).i32_ge_s().if_(BlockType::Empty);
        f.i32_const(0).return_();
        f.end();
        f.i32_const(STATE + 20);
        f.local_get(t).i32_const(1).i32_add();
        f.i32_store(0);
        f.local_get(t).i32_const(QMASK).i32_and().i32_const(4).i32_mul().i32_const(QUEUE).i32_add();
        f.i32_load(0);
        mb.add_private_func("takepkt", f)
    };

    // Task functions: (step) -> work_units. All share type [i32]->[i32].
    // idle: occasionally enqueues a packet.
    let idle = {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).i32_const(3).i32_and().i32_eqz().if_(BlockType::Empty);
        f.local_get(0).i32_const(1).i32_or().call(qpkt).drop_();
        f.end();
        f.i32_const(1);
        mb.add_private_func("task_idle", f)
    };
    // worker: takes a packet, mixes its bits, re-enqueues.
    let worker = {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let p = f.local(I32);
        f.call(takepkt).local_set(p);
        f.local_get(p).i32_eqz().if_(BlockType::Empty);
        f.i32_const(0).return_();
        f.end();
        f.local_get(p)
            .i32_const(26)
            .i32_rotl()
            .local_get(0)
            .i32_xor()
            .i32_const(0x0123_4567)
            .i32_add()
            .call(qpkt)
            .drop_();
        f.i32_const(2);
        mb.add_private_func("task_worker", f)
    };
    // handler: takes two packets, combines, enqueues one.
    let handler = {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let a = f.local(I32);
        let b = f.local(I32);
        f.call(takepkt).local_set(a);
        f.call(takepkt).local_set(b);
        f.local_get(a).local_get(b).i32_or().i32_eqz().if_(BlockType::Empty);
        f.i32_const(0).return_();
        f.end();
        f.local_get(a).local_get(b).i32_xor().i32_const(7).i32_rotl().call(qpkt).drop_();
        f.i32_const(3);
        mb.add_private_func("task_handler", f)
    };
    // device: accumulates into the device register at STATE+24.
    let device = {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let p = f.local(I32);
        f.call(takepkt).local_set(p);
        f.i32_const(STATE + 24);
        f.i32_const(STATE + 24).i32_load(0);
        f.local_get(p).i32_add().i32_const(13).i32_rotl();
        f.i32_store(0);
        f.local_get(p).i32_const(0).i32_ne();
        mb.add_private_func("task_device", f)
    };
    mb.elem(0, &[idle, worker, handler, device]);

    let sig = mb.sig(&[I32], &[I32]);
    let mut run = FuncBuilder::new(&[I32], &[I32]);
    let step = run.local(I32);
    let sum = run.local(I32);
    let task = run.local(I32);
    // Seed the queue.
    run.i32_const(0xbeef).call(qpkt).drop_();
    run.i32_const(0xcafe).call(qpkt).drop_();
    run.for_range(step, 0, |f| {
        // Pick the task: a mix of step and the device register, mod 4 —
        // data-dependent indirect dispatch like the original scheduler.
        f.local_get(step)
            .i32_const(STATE + 24)
            .i32_load(0)
            .i32_add()
            .i32_const(3)
            .i32_and()
            .local_set(task);
        f.local_get(sum);
        f.local_get(step);
        f.local_get(task);
        f.call_indirect(sig);
        f.i32_add().local_set(sum);
    });
    run.local_get(sum).i32_const(STATE + 24).i32_load(0).i32_add();
    mb.add_func("run", run);
    mb.build().expect("richards validates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_engine::store::Linker;
    use wizard_engine::{EngineConfig, Process, Value};

    #[test]
    fn richards_runs_and_tiers_agree() {
        let m = build_clean();
        let mut interp =
            Process::new(m.clone(), EngineConfig::interpreter_bytecode(), &Linker::new()).unwrap();
        let mut reg = Process::new(m, EngineConfig::default(), &Linker::new()).unwrap();
        let r1 = interp.invoke_export("run", &[Value::I32(10_000)]).unwrap();
        let r2 = reg.invoke_export("run", &[Value::I32(10_000)]).unwrap();
        assert_eq!(r1, r2);
        assert_ne!(r1[0], Value::I32(0));
    }
}
