//! Lints every suite kernel — plus the real-module ingestion corpus —
//! and translation-validates each lowered and register form.
//!
//! CI runs this in the smoke step: any lowering mismatch is a hard
//! failure (exit 1 with the func/pc-precise diagnostic); lint findings
//! are reported as a per-kernel summary.
//!
//! Coverage:
//!
//! * every suite kernel (`all_suites` + Richards), builder-built;
//! * every `wizard_suites::corpus` module, decoded from its encoded
//!   `.wasm` bytes so the sweep exercises the real frontend;
//! * every `.wasm` file under `tests/corpus/` (or the directories given
//!   as arguments) — the hand-assembled binaries produced outside the
//!   repo's own encoder.

use std::collections::HashMap;

use wizard_analysis::{lint_module, validate_lowering, validate_register_lowering, LintKind};
use wizard_engine::ModuleArtifact;
use wizard_suites::corpus::corpus;
use wizard_suites::{all_suites, richards_benchmark, Scale};
use wizard_wasm::decode::decode;
use wizard_wasm::module::Module;

/// Lowering-validates (stack and register forms) and lints one module;
/// exits on validation failure,
/// returns the lint findings otherwise.
fn check(name: &str, module: Module, total: &mut HashMap<LintKind, usize>) {
    let artifact = match ModuleArtifact::new(module) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{name}: failed validation: {e}");
            std::process::exit(1);
        }
    };
    artifact.lower_all();
    if let Err(e) = validate_lowering(&artifact) {
        eprintln!("{name}: {e}");
        std::process::exit(1);
    }
    if let Err(e) = validate_register_lowering(&artifact) {
        eprintln!("{name}: {e}");
        std::process::exit(1);
    }

    let findings = lint_module(artifact.module());
    if !findings.is_empty() {
        let mut per: HashMap<LintKind, usize> = HashMap::new();
        for f in &findings {
            *per.entry(f.kind).or_default() += 1;
            *total.entry(f.kind).or_default() += 1;
        }
        let mut kinds: Vec<String> = per.iter().map(|(k, n)| format!("{k}: {n}")).collect();
        kinds.sort();
        println!("{name}: {}", kinds.join(", "));
    }
}

fn main() {
    let mut total: HashMap<LintKind, usize> = HashMap::new();
    let mut validated = 0usize;

    let mut kernels = all_suites(Scale::Test);
    kernels.push(richards_benchmark(1));
    for b in kernels {
        check(&format!("{}/{}", b.suite, b.name), b.module, &mut total);
        validated += 1;
    }

    // The ingestion corpus, decoded from raw bytes (not the built module):
    // the lint sweep sees exactly what an embedder would instantiate.
    for e in corpus(Scale::Test) {
        let module = match decode(&e.bytes) {
            Ok(m) => m,
            Err(err) => {
                eprintln!("corpus/{}: failed to decode: {err}", e.name);
                std::process::exit(1);
            }
        };
        check(&format!("corpus/{}", e.name), module, &mut total);
        validated += 1;
    }

    // Hand-assembled binaries on disk. Default to `tests/corpus/` when it
    // exists (running from the repo root); explicit directories override.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dirs: Vec<String> = if args.is_empty() {
        if std::path::Path::new("tests/corpus").is_dir() {
            vec!["tests/corpus".to_string()]
        } else {
            Vec::new()
        }
    } else {
        args
    };
    for dir in dirs {
        let mut files: Vec<std::path::PathBuf> = match std::fs::read_dir(&dir) {
            Ok(rd) => rd
                .filter_map(Result::ok)
                .map(|ent| ent.path())
                .filter(|p| p.extension().is_some_and(|x| x == "wasm"))
                .collect(),
            Err(e) => {
                eprintln!("{dir}: cannot read directory: {e}");
                std::process::exit(1);
            }
        };
        files.sort();
        if files.is_empty() {
            eprintln!("{dir}: no .wasm files to lint");
            std::process::exit(1);
        }
        for path in files {
            let name = path.display().to_string();
            let bytes = match std::fs::read(&path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("{name}: cannot read: {e}");
                    std::process::exit(1);
                }
            };
            let module = match decode(&bytes) {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("{name}: failed to decode: {e}");
                    std::process::exit(1);
                }
            };
            check(&name, module, &mut total);
            validated += 1;
        }
    }

    let mut summary: Vec<String> = total.iter().map(|(k, n)| format!("{k}: {n}")).collect();
    summary.sort();
    println!(
        "wasm-lint: {validated} modules lowering-validated; findings: {}",
        if summary.is_empty() { "none".to_string() } else { summary.join(", ") }
    );
}
