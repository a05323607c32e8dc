//! Figure 2: the compiled code — the register form — for different probe
//! kinds: uninstrumented (the artifact's shared form), a generic probe
//! (checkpoint + runtime call), an intrinsified top-of-stack operand probe
//! (direct call), and an intrinsified counter probe (fully inlined
//! increment). Each instrumented listing shows the `R_SITE` park point
//! ahead of the probed `if`, as what it is currently bound to.

use wizard_engine::store::Linker;
use wizard_engine::{CountProbe, EmptyOperandProbe, EmptyProbe, EngineConfig, Process};
use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::types::BlockType;
use wizard_wasm::types::ValType::I32;

fn sample() -> (wizard_wasm::Module, u32) {
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    f.local_get(0);
    let probe_pc = f.pc();
    f.if_(BlockType::Value(I32));
    f.i32_const(1);
    f.else_();
    f.i32_const(2);
    f.end();
    mb.add_func("sample", f);
    (mb.build().expect("valid"), probe_pc)
}

fn listing(kind: &str, attach: impl FnOnce(&mut Process, u32, u32)) -> String {
    let (m, pc) = sample();
    let mut p = Process::new(m, EngineConfig::default(), &Linker::new()).expect("instantiates");
    let f = p.module().export_func("sample").unwrap();
    attach(&mut p, f, pc);
    let code = p.compiled_listing(f).expect("lowers");
    format!("--- {kind} ---\n{code}")
}

fn main() {
    println!("=== Figure 2: register code for each probe kind (probe on the `if`) ===\n");
    print!("{}", listing("uninstrumented", |_, _, _| {}));
    print!(
        "{}",
        listing("generic probe (checkpoint + runtime call)", |p, f, pc| {
            p.add_local_probe_val(f, pc, EmptyProbe).unwrap();
        })
    );
    print!(
        "{}",
        listing("operand probe, intrinsified (direct top-of-stack call)", |p, f, pc| {
            p.add_local_probe_val(f, pc, EmptyOperandProbe).unwrap();
        })
    );
    print!(
        "{}",
        listing("counter probe, intrinsified (inline increment)", |p, f, pc| {
            p.add_local_probe_val(f, pc, CountProbe::new()).unwrap();
        })
    );
}
