//! Adversarial tests for the validator and binary decoder: every rejection
//! path the engine's safety rests on, plus decoder robustness against
//! arbitrary and mutated bytes.

use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::decode::decode;
use wizard_wasm::encode::encode;
use wizard_wasm::module::{ConstExpr, FuncBody, FuncDecl, Module};
use wizard_wasm::opcodes as op;
use wizard_wasm::types::ValType::{F64, I32, I64};
use wizard_wasm::types::{BlockType, FuncType};
use wizard_wasm::validate::validate;

/// Wraps raw body bytes in a module with signature `[] -> [results]`.
fn module_with_body(results: &[wizard_wasm::ValType], code: Vec<u8>) -> Module {
    let mut m = Module::new();
    m.types.push(FuncType::new(&[], results));
    m.funcs.push(FuncDecl { type_idx: 0, body: FuncBody { locals: vec![], code } });
    m
}

fn rejects(results: &[wizard_wasm::ValType], code: Vec<u8>, why: &str) {
    let m = module_with_body(results, code);
    assert!(validate(&m).is_err(), "expected rejection: {why}");
}

#[test]
fn stack_underflow_rejected() {
    rejects(&[], vec![op::DROP, op::END], "drop on empty stack");
    rejects(&[], vec![op::I32_ADD, op::END], "add on empty stack");
    rejects(&[], vec![op::I32_CONST, 1, op::I32_ADD, op::END], "add with one operand");
}

#[test]
fn type_mismatches_rejected() {
    // i32.add on an i64 operand.
    let mut f = FuncBuilder::new(&[], &[I32]);
    f.i64_const(1).i64_const(2).op(op::I32_ADD);
    let mut mb = ModuleBuilder::new();
    mb.add_func("bad", f);
    assert!(mb.build().is_err());
    // f64 result where i32 declared.
    let mut f = FuncBuilder::new(&[], &[I32]);
    f.f64_const(1.0);
    let mut mb = ModuleBuilder::new();
    mb.add_func("bad", f);
    assert!(mb.build().is_err());
}

#[test]
fn dangling_results_rejected() {
    rejects(&[], vec![op::I32_CONST, 5, op::END], "value left on stack");
    rejects(&[I32], vec![op::END], "missing result");
}

#[test]
fn branch_depth_out_of_range_rejected() {
    rejects(&[], vec![op::BR, 1, op::END], "br 1 with one label");
    rejects(&[], vec![op::BLOCK, 0x40, op::BR, 5, op::END, op::END], "br 5");
}

#[test]
fn unbalanced_control_rejected() {
    rejects(&[], vec![op::BLOCK, 0x40, op::END], "missing function end");
    rejects(&[], vec![op::ELSE, op::END], "else without if");
    rejects(&[], vec![op::END, op::END], "extra end");
}

#[test]
fn if_with_result_requires_else() {
    let mut f = FuncBuilder::new(&[], &[I32]);
    f.i32_const(1).if_(BlockType::Value(I32));
    f.i32_const(2);
    f.end();
    let mut mb = ModuleBuilder::new();
    mb.add_func("bad", f);
    assert!(mb.build().is_err(), "if with result but no else");
}

#[test]
fn local_and_global_indices_checked() {
    rejects(&[], vec![op::LOCAL_GET, 3, op::DROP, op::END], "no local 3");
    rejects(&[], vec![op::GLOBAL_GET, 0, op::DROP, op::END], "no global 0");
    // Immutable global assignment.
    let mut mb = ModuleBuilder::new();
    let g = mb.global(I64, false, ConstExpr::I64(1));
    let mut f = FuncBuilder::new(&[], &[]);
    f.i64_const(2).global_set(g);
    mb.add_func("bad", f);
    assert!(mb.build().is_err(), "global.set of immutable global");
}

#[test]
fn memory_instructions_require_memory() {
    rejects(&[I32], vec![op::I32_CONST, 0, op::I32_LOAD, 2, 0, op::END], "load without memory");
    rejects(&[I32], vec![op::MEMORY_SIZE, 0, op::END], "memory.size without memory");
}

#[test]
fn alignment_over_natural_rejected() {
    let mut mb = ModuleBuilder::new();
    mb.memory(1);
    let mut f = FuncBuilder::new(&[], &[I32]);
    f.i32_const(0).load(op::I32_LOAD, 3, 0); // 2^3 > natural 2^2
    mb.add_func("bad", f);
    assert!(mb.build().is_err());
}

#[test]
fn call_checks() {
    rejects(&[], vec![op::CALL, 9, op::END], "call to unknown function");
    // call_indirect without a table.
    rejects(
        &[],
        vec![op::I32_CONST, 0, op::CALL_INDIRECT, 0, 0, op::END],
        "call_indirect without table",
    );
}

#[test]
fn select_operand_types_must_match() {
    let mut f = FuncBuilder::new(&[], &[]);
    f.i32_const(1).f64_const(2.0).i32_const(0).select().drop_();
    let mut mb = ModuleBuilder::new();
    mb.add_func("bad", f);
    assert!(mb.build().is_err());
}

#[test]
fn br_table_inconsistent_arity_rejected() {
    // Outer block yields i32, inner yields nothing: br_table mixing them
    // must be rejected.
    let mut f = FuncBuilder::new(&[], &[I32]);
    f.block(BlockType::Value(I32));
    f.block(BlockType::Empty);
    f.i32_const(0).br_table(&[0], 1);
    f.end();
    f.i32_const(1);
    f.end();
    let mut mb = ModuleBuilder::new();
    mb.add_func("bad", f);
    assert!(mb.build().is_err());
}

#[test]
fn module_level_checks() {
    // Duplicate export names.
    let mut m = Module::new();
    m.types.push(FuncType::new(&[], &[]));
    m.funcs.push(FuncDecl { type_idx: 0, body: FuncBody { locals: vec![], code: vec![op::END] } });
    m.exports.push(wizard_wasm::module::Export {
        name: "x".into(),
        kind: wizard_wasm::types::ExternKind::Func,
        index: 0,
    });
    m.exports.push(wizard_wasm::module::Export {
        name: "x".into(),
        kind: wizard_wasm::types::ExternKind::Func,
        index: 0,
    });
    assert!(validate(&m).is_err(), "duplicate export");

    // Start function with parameters.
    let mut m = Module::new();
    m.types.push(FuncType::new(&[I32], &[]));
    m.funcs.push(FuncDecl { type_idx: 0, body: FuncBody { locals: vec![], code: vec![op::END] } });
    m.start = Some(0);
    assert!(validate(&m).is_err(), "start with params");

    // Multi-value result type: the error names the result arity (and the
    // using function, when one exists).
    let mut m = Module::new();
    m.types.push(FuncType::new(&[], &[I32, I32]));
    let err = validate(&m).expect_err("multi-value type").to_string();
    assert!(err.contains("2 results"), "{err}");
    m.funcs.push(FuncDecl {
        type_idx: 0,
        body: FuncBody { locals: vec![], code: vec![op::I32_CONST, 0, op::END] },
    });
    let err = validate(&m).expect_err("multi-value type").to_string();
    assert!(err.contains("used by func 0"), "{err}");
}

#[test]
fn probe_byte_is_invalid_in_source_modules() {
    rejects(&[], vec![op::PROBE, op::END], "reserved probe opcode in input");
}

#[test]
fn unreachable_code_is_validated_structurally() {
    // After `unreachable`, polymorphic stack: this is legal...
    let mut f = FuncBuilder::new(&[], &[I32]);
    f.unreachable();
    f.i32_add(); // operands come from the polymorphic stack
    let mut mb = ModuleBuilder::new();
    mb.add_func("ok", f);
    assert!(mb.build().is_ok(), "polymorphic stack after unreachable");
    // ...but unbalanced control still is not.
    rejects(&[], vec![op::UNREACHABLE, op::BLOCK, 0x40, op::END], "unclosed block");
}

#[test]
fn float_param_flows() {
    // Sanity: a valid f64 pipeline validates (guards against over-strict
    // typing rules).
    let mut f = FuncBuilder::new(&[F64, F64], &[F64]);
    f.local_get(0).local_get(1).f64_mul().f64_sqrt();
    let mut mb = ModuleBuilder::new();
    mb.add_func("ok", f);
    assert!(mb.build().is_ok());
}

/// xorshift64 — a deterministic byte source, no external crates.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Decode, then validate what decoded: either step may refuse with a typed
/// error, neither may panic.
fn ingest(bytes: &[u8]) {
    if let Ok(m) = decode(bytes) {
        let _ = validate(&m);
    }
}

/// The seed binaries: every checked-in `tests/corpus/*.wasm` plus an
/// encoded builder module with memory, a loop and an export.
fn seed_binaries() -> Vec<Vec<u8>> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    let mut seeds: Vec<Vec<u8>> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "wasm"))
        .map(|path| std::fs::read(path).expect("readable corpus file"))
        .collect();
    assert!(!seeds.is_empty(), "no .wasm files under {dir}");

    let mut mb = ModuleBuilder::new();
    mb.memory(1);
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let i = f.local(I32);
    f.for_range(i, 0, |f| {
        f.nop();
    });
    f.local_get(0);
    mb.add_func("run", f);
    seeds.push(encode(&mb.build().unwrap()));
    seeds
}

#[test]
fn arbitrary_bytes_never_panic_the_decoder() {
    let mut rng = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..256 {
        let len = (next(&mut rng) % 512) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| next(&mut rng) as u8).collect();
        ingest(&bytes);
        // The same bytes behind a valid header reach the section parsers.
        ingest(&[b"\0asm\x01\0\0\0", &bytes[..]].concat());
    }
}

#[test]
fn mutated_modules_never_panic() {
    let mut rng = 0x2545_f491_4f6c_dd1d;
    for seed in seed_binaries() {
        for _ in 0..512 {
            let mut bytes = seed.clone();
            for _ in 0..=next(&mut rng) % 8 {
                let pos = next(&mut rng) as usize % bytes.len();
                bytes[pos] = next(&mut rng) as u8;
            }
            ingest(&bytes);
            // Truncation: every parser's end-of-input path.
            ingest(&bytes[..next(&mut rng) as usize % bytes.len()]);
        }
    }
}
