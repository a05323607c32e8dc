//! Conformance harness for the binary ingestion path.
//!
//! Every corpus module — realistic workloads generated by
//! `wizard_suites::corpus` plus hand-assembled binaries checked in under
//! `tests/corpus/` — enters the engine the way a production `.wasm` file
//! would: **raw bytes** → decode → validate → lower → artifact-build →
//! execute. Each module then runs on every dispatcher/tier combination
//! with the translation validator enabled
//! (`EngineConfig::validate_lowering(true)` plus
//! `wizard::analysis::install_engine_validator`), and the harness asserts
//! dispatcher invariance of:
//!
//! * results (including traps, e.g. `wasi_io`'s `proc_exit` arm),
//! * host-visible effects (shim call counts and the I/O digest),
//! * probe-instrumented monitor reports (mirroring `tests/differential.rs`),
//! * captured `wizard-trace` streams (byte-identical on every config),
//! * warm instantiation through `wizard-pool`'s `ArtifactCache`.
//!
//! The encode↔decode round-trip property rides along: every corpus
//! module and a wide sweep of random builder modules re-encode
//! byte-identically, and the non-canonical hand-assembled binary decodes
//! to an equivalent module even though its bytes canonicalize.

use std::sync::Arc;

use wizard::engine::store::Linker;
use wizard::engine::{Dispatch, EngineConfig, Process, Shims, Value};
use wizard::monitors::HotnessMonitor;
use wizard::pool::ArtifactCache;
use wizard::suites::corpus::{corpus, CorpusEntry};
use wizard::suites::randgen::random_module;
use wizard::suites::Scale;
use wizard::trace::{decode_trace, StreamingTraceMonitor};
use wizard::wasm::decode::decode;
use wizard::wasm::encode::encode;
use wizard::wasm::Module;

/// Hand-assembled binaries (see `tests/corpus/gen_hand_assembled.py`).
const HAND_ADD4: &[u8] = include_bytes!("corpus/hand_add4.wasm");
const HAND_NONCANON: &[u8] = include_bytes!("corpus/hand_noncanon.wasm");
const HAND_START_DATA: &[u8] = include_bytes!("corpus/hand_start_data.wasm");

/// Both dispatchers with and without intrinsification, each with the
/// translation validator armed: instantiation re-checks every function's
/// register form against the bytecode reference semantics, and every
/// instrumented register form is checked as it is lowered.
fn configs() -> Vec<(&'static str, EngineConfig)> {
    let mut v = vec![
        ("default", EngineConfig::default()),
        ("interp-bytecode", EngineConfig::interpreter_bytecode()),
        ("no-intrinsics", EngineConfig::builder().intrinsify(false).build()),
        (
            "no-intrinsics-bytecode",
            EngineConfig::builder().dispatch(Dispatch::Bytecode).intrinsify(false).build(),
        ),
    ];
    for (_, c) in &mut v {
        c.validate_lowering = true;
    }
    v
}

/// Ingests `bytes` from scratch under `config` and invokes `run(n)`,
/// returning the outcome plus the host-visible effects.
#[allow(clippy::type_complexity)]
fn ingest_and_run(
    name: &str,
    bytes: &[u8],
    n: i32,
    config: EngineConfig,
) -> (Result<Vec<Value>, String>, Vec<(String, u64)>, u64) {
    let module = decode(bytes).unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
    let shims = Shims::standard();
    let linker =
        shims.linker_for(&module).unwrap_or_else(|e| panic!("{name}: shim resolution failed: {e}"));
    let validations = u64::from(config.validate_lowering);
    let mut p = Process::new(module, config, &linker)
        .unwrap_or_else(|e| panic!("{name}: instantiate failed: {e}"));
    assert_eq!(p.stats().lowering_validations, validations, "{name}: validator did not run");
    let out = p.invoke_export("run", &[Value::I32(n)]).map_err(|t| t.to_string());
    let counts = shims.call_counts();
    (out, counts, shims.digest())
}

/// The corpus plus the hand-assembled binaries, as (name, bytes, n).
fn all_inputs() -> Vec<(String, Vec<u8>, i32)> {
    let mut v: Vec<(String, Vec<u8>, i32)> = corpus(Scale::Test)
        .into_iter()
        .map(|e: CorpusEntry| (e.name.to_string(), e.bytes, e.n))
        .collect();
    v.push(("hand_add4".into(), HAND_ADD4.to_vec(), 5));
    v.push(("hand_noncanon".into(), HAND_NONCANON.to_vec(), 5));
    v.push(("hand_start_data".into(), HAND_START_DATA.to_vec(), 3));
    v
}

/// Results, traps, shim call counts, and I/O digests are identical on
/// every dispatcher and tier, with the translation validator on.
#[test]
fn corpus_binaries_are_dispatcher_invariant() {
    wizard::analysis::install_engine_validator();
    for (name, bytes, n) in all_inputs() {
        let reference = ingest_and_run(&name, &bytes, n, EngineConfig::interpreter_bytecode());
        for (cname, config) in configs() {
            let got = ingest_and_run(&name, &bytes, n, config);
            assert_eq!(got, reference, "{name} on {cname} diverges from classic bytecode");
        }
        // The trap arm: wasi_io's proc_exit must trap identically too.
        if name == "wasi_io" {
            let trap = ingest_and_run(&name, &bytes, -1, EngineConfig::interpreter_bytecode());
            assert!(trap.0.is_err(), "wasi_io run(-1) should trap via proc_exit");
            for (cname, config) in configs() {
                assert_eq!(
                    ingest_and_run(&name, &bytes, -1, config),
                    trap,
                    "{name} trap arm on {cname}"
                );
            }
        }
    }
}

/// Probe-instrumented runs produce identical reports across dispatchers,
/// exactly as `tests/differential.rs` asserts for generated modules.
#[test]
fn corpus_probed_reports_are_dispatcher_invariant() {
    wizard::analysis::install_engine_validator();
    for (name, bytes, n) in all_inputs() {
        let mut reports = Vec::new();
        for (cname, config) in configs() {
            let module = decode(&bytes).expect("decodes");
            let shims = Shims::standard();
            let linker = shims.linker_for(&module).expect("resolves");
            let mut p = Process::new(module, config, &linker).expect("instantiates");
            let mon = p.attach_monitor(HotnessMonitor::new()).expect("attach");
            let got = p.invoke_export("run", &[Value::I32(n)]).map_err(|t| t.to_string());
            reports.push((cname, got, mon.report()));
        }
        let (ref_name, ref_got, ref_report) = &reports[0];
        for (cname, got, report) in &reports[1..] {
            assert_eq!(got, ref_got, "{name}: {cname} result differs from {ref_name}");
            assert_eq!(report, ref_report, "{name}: {cname} report differs from {ref_name}");
        }
    }
}

/// Captured trace streams are dispatcher-invariant: the same module and
/// input produce *byte-identical* traces (same dictionary, same event
/// sequence, same framing) on every dispatcher/tier combination, with
/// the translation validator on.
#[test]
fn corpus_trace_streams_are_dispatcher_invariant() {
    wizard::analysis::install_engine_validator();
    for (name, bytes, n) in all_inputs() {
        let mut captures = Vec::new();
        for (cname, config) in configs() {
            let module = decode(&bytes).expect("decodes");
            let shims = Shims::standard();
            let linker = shims.linker_for(&module).expect("resolves");
            let mut p = Process::new(module, config, &linker).expect("instantiates");
            let mon = p.attach_monitor(StreamingTraceMonitor::in_memory()).expect("attach");
            let got = p.invoke_export("run", &[Value::I32(n)]).map_err(|t| t.to_string());
            p.detach_monitor(mon.handle()).expect("detach");
            let data = mon.borrow().trace_data().expect("in-memory tracer");
            decode_trace(&data).unwrap_or_else(|e| panic!("{name} on {cname}: bad stream: {e}"));
            captures.push((cname, got, data));
        }
        let (ref_name, ref_got, ref_data) = &captures[0];
        for (cname, got, data) in &captures[1..] {
            assert_eq!(got, ref_got, "{name}: {cname} result differs from {ref_name}");
            assert_eq!(data, ref_data, "{name}: {cname} trace bytes differ from {ref_name}");
        }
    }
}

/// Warm instantiation through the pool's `ArtifactCache` behaves exactly
/// like a cold `Process::new`: same results, same shim effects, and the
/// second lookup of a module is a cache hit sharing one artifact.
#[test]
fn corpus_warm_instantiation_through_artifact_cache_matches_cold() {
    for e in corpus(Scale::Test) {
        let cache = ArtifactCache::new();
        let module = decode(&e.bytes).expect("decodes");
        let (a1, hit1) = cache.lookup(&module).expect("artifact builds");
        let (a2, hit2) = cache.lookup(&module).expect("artifact builds");
        assert!(!hit1 && hit2, "{}: second lookup should hit", e.name);
        assert!(Arc::ptr_eq(&a1, &a2), "{}: cache handed out distinct artifacts", e.name);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);

        let run_cold = {
            let shims = Shims::standard();
            let linker = shims.linker_for(&e.module).expect("resolves");
            let mut p = Process::new(module, EngineConfig::interpreter(), &linker)
                .expect("cold instantiate");
            let out = p.invoke_export("run", &[Value::I32(e.n)]).map_err(|t| t.to_string());
            (out, shims.digest(), shims.total_calls())
        };
        let run_warm = {
            let shims = Shims::standard();
            let linker = shims.linker_for(&e.module).expect("resolves");
            let mut p = Process::instantiate(a2, EngineConfig::interpreter(), &linker)
                .expect("warm instantiate");
            let out = p.invoke_export("run", &[Value::I32(e.n)]).map_err(|t| t.to_string());
            (out, shims.digest(), shims.total_calls())
        };
        assert_eq!(run_warm, run_cold, "{}: warm path diverges from cold path", e.name);
    }
}

/// Encode↔decode round-trip property: every corpus module and a wide
/// sweep of random builder modules re-encode byte-identically.
#[test]
fn corpus_and_random_modules_round_trip_byte_identically() {
    // Builder modules carry Rust-side debug names that the encoder does
    // not serialize (there is no name section unless hand-written), so
    // structural equality is checked with names stripped.
    let strip_names = |mut m: Module| {
        m.names.clear();
        m
    };
    for e in corpus(Scale::Test) {
        let decoded = decode(&e.bytes).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        assert_eq!(
            decoded,
            strip_names(e.module.clone()),
            "{}: decode does not reproduce the built module",
            e.name
        );
        assert_eq!(encode(&decoded), e.bytes, "{}: re-encode differs", e.name);
    }
    for seed in 0..500u64 {
        let m = random_module(seed);
        let bytes = encode(&m);
        let decoded = decode(&bytes).unwrap_or_else(|err| panic!("seed {seed}: {err}"));
        assert_eq!(encode(&decoded), bytes, "seed {seed}: re-encode differs");
        assert_eq!(decoded, strip_names(m), "seed {seed}: decoded module differs structurally");
    }
}

/// The non-canonical hand-assembled binary decodes to a module
/// *equivalent* to the canonical one: its padded LEBs normalize, so the
/// bytes canonicalize on re-encode rather than round-tripping.
#[test]
fn noncanonical_binary_normalizes_to_the_canonical_module() {
    let canon = decode(HAND_ADD4).expect("canonical decodes");
    let noncanon = decode(HAND_NONCANON).expect("non-canonical decodes");
    // Outside function bodies, padded LEBs (counts, sizes, indices) are
    // normalized at decode time: the structural module matches the
    // canonical one field for field.
    assert_eq!(noncanon.types, canon.types);
    assert_eq!(noncanon.exports, canon.exports);
    assert_eq!(noncanon.funcs.len(), canon.funcs.len());
    assert_eq!(noncanon.funcs[0].type_idx, canon.funcs[0].type_idx);
    // INSIDE a body the decoder preserves the raw bytes verbatim — the
    // engine interprets bytecode in place and its LEB readers normalize
    // at execution time — so the padded immediates survive decoding...
    assert_ne!(noncanon.funcs[0].body.code, canon.funcs[0].body.code);
    assert!(noncanon.funcs[0].body.code.len() > canon.funcs[0].body.code.len());
    // ...and `hand_assembled_binaries_execute` pins that both spellings
    // compute the same function. Re-encoding canonicalizes the section
    // framing (it cannot round-trip the padded sizes), and the result is
    // a fixed point.
    let reencoded = encode(&noncanon);
    assert_ne!(reencoded, HAND_NONCANON, "re-encode should canonicalize the padded framing");
    assert!(reencoded.len() < HAND_NONCANON.len());
    let again = decode(&reencoded).expect("canonicalized decodes");
    assert_eq!(encode(&again), reencoded);
}

/// The hand-assembled binaries execute correctly: `add4` adds 4, the
/// name section survives decoding, and `hand_start_data`'s start
/// function loads the data segment into its global before `run`.
#[test]
fn hand_assembled_binaries_execute() {
    let run = |bytes: &[u8], n: i32| {
        let module = decode(bytes).expect("decodes");
        let mut p = Process::new(module, EngineConfig::interpreter(), &Linker::new())
            .expect("instantiates");
        p.invoke_export("run", &[Value::I32(n)]).expect("runs")
    };
    assert_eq!(run(HAND_ADD4, 5), vec![Value::I32(9)]);
    assert_eq!(run(HAND_NONCANON, 5), vec![Value::I32(9)]);
    // "corp" little-endian = 0x70726f63; run(3) = 3 * global.
    let word = i32::from_le_bytes(*b"corp");
    assert_eq!(run(HAND_START_DATA, 3), vec![Value::I32(word.wrapping_mul(3))]);
    // The name section named the function "add4".
    let named = decode(HAND_ADD4).expect("decodes");
    assert_eq!(named.func_name(0), Some("add4"));
}
