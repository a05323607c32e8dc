//! `gen-inputs`: freezes the wizard-suites generators' output into
//! `inputs/*.wasm` and computes `inputs/manifest.json`. Run once when the
//! input set changes, from the repo root (the command is in README.md
//! under *Inputs*); the run path never needs this module or
//! `wizard-suites`.
//!
//! Every expected value comes from `EngineConfig::interpreter_bytecode()`
//! — the byte-walking reference dispatch loop — never from the default
//! configuration the benchmark measures.

use std::path::Path;

use wizard_suites::{corpus, polybench, Scale};

use crate::inputs::{coverage_digest, Expect};
use crate::json::Json;
use crate::surface as s;

struct Module {
    name: String,
    suite: &'static str,
    imports: bool,
    bytes: Vec<u8>,
    args: Vec<(&'static str, i32)>,
}

/// How many of the suite kernels, ranked by branches per instruction,
/// join richards in `probe_churn` — among those long enough to be cut into
/// at least 20 of its 5 000-fuel slices, since a kernel that ends inside
/// its first slices sees no instrumentation change. Their argument is the
/// `batch` one where there is one (PolyBench at its small size), else the
/// `exec` one: jobs of 100–600 k instructions, short enough that a run
/// collects over a thousand latency samples.
const CHURN_KERNELS: usize = 8;
const CHURN_MIN_INSTRS: u64 = 100_000;
const RICHARDS_CHURN: i32 = 4_000;

/// Richards arguments: the paper-comparison size for `exec`, and sizes
/// that make it a genuinely long job where a workload needs one.
const RICHARDS_EXEC: i32 = 300;
const RICHARDS_LONG: i32 = 10_000;

/// `serve_mixed`'s interactive tenant sends *short* requests: 50–120 k
/// instructions, 5–12 of the engine's 10 000-fuel slices.
fn interactive_arg(name: &str) -> Option<i32> {
    match name {
        "crc32" => Some(2),
        "base64" | "hashtable" => Some(1),
        _ => None,
    }
}

fn reference(name: &str, bytes: &[u8], imports: bool, n: i32) -> Result<Expect, String> {
    let config = s::reference_config();
    let fresh = || -> Result<_, String> {
        let module = s::decode(bytes)?;
        let linker = s::linker_for(&module, imports)?;
        s::instantiate(&s::artifact_new(module)?, &config, &linker)
    };
    let plain = s::result_string(&s::invoke_run(&mut fresh()?, n)?);

    // One instrumented run with all four observers attached: they are
    // independent, and the result must not move (non-intrusion).
    let mut p = fresh()?;
    let monitors = [
        s::attach_hotness(&mut p)?,
        s::attach_branch(&mut p)?,
        s::attach_trace(&mut p)?,
        s::attach_coverage(&mut p)?,
    ];
    let probed = s::result_string(&s::invoke_run(&mut p, n)?);
    if probed != plain {
        return Err(format!("{name}({n}): instrumented result {probed} != plain {plain}"));
    }
    for m in &monitors {
        s::detach(&mut p, m)?;
    }
    let total = |m: &s::Attached| s::report_total(&s::report(m)).ok_or("report has no total");
    let trace_events = total(&monitors[2])?;
    let trace_bytes = s::report_trace_bytes(&s::report(&monitors[2])).ok_or("no trace bytes")?;
    if s::check_trace_stream(&monitors[2], trace_events)? != trace_bytes {
        return Err(format!("{name}({n}): trace stream length differs from its report"));
    }
    let sites = s::covered_sites(&monitors[3]);
    Ok(Expect {
        result: plain,
        instrs: total(&monitors[0])?,
        branches: total(&monitors[1])?,
        trace_events,
        trace_bytes,
        coverage_sites: sites.len() as u64,
        coverage_digest: coverage_digest(&sites),
    })
}

/// `cold_ingest` wants the front end, not execution, to be the job, so it
/// calls `run` with the smallest argument each suite accepts: PolyBench
/// problem size 4 (3 for the cubic kernels), and zero repetitions for the
/// suites whose argument is a repeat count — they still initialise their
/// buffers and fold them into the checksum.
fn cold_arg(suite: &str, name: &str) -> i32 {
    match suite {
        "polybench" if polybench::is_cubic(name) => 3,
        "polybench" => 4,
        _ => 0,
    }
}

fn suite_modules() -> Vec<Module> {
    let mut out = Vec::new();
    let medium = wizard_suites::all_suites(Scale::Medium);
    let small = wizard_suites::all_suites(Scale::Small);
    for (m, sm) in medium.iter().zip(&small) {
        let mut args = vec![("exec", m.n), ("cold", cold_arg(m.suite, m.name))];
        if m.suite == "polybench" {
            args.push(("batch", sm.n));
            if polybench::is_cubic(m.name) {
                // Long low-priority jobs: the cubic kernels at full size.
                args.push(("background", m.n));
            }
        }
        out.push(Module {
            name: m.name.to_string(),
            suite: m.suite,
            imports: false,
            bytes: wizard_wasm::encode::encode(&m.module),
            args,
        });
    }
    let r = wizard_suites::richards_benchmark(RICHARDS_EXEC);
    out.push(Module {
        name: "richards".into(),
        suite: "richards",
        imports: false,
        bytes: wizard_wasm::encode::encode(&r.module),
        args: vec![
            ("exec", RICHARDS_EXEC),
            ("churn", RICHARDS_CHURN),
            ("cold", cold_arg("richards", "richards")),
            ("background", RICHARDS_LONG),
        ],
    });
    out
}

fn corpus_modules(repo: &Path) -> Result<Vec<Module>, String> {
    let mut out = Vec::new();
    for t in corpus::corpus(Scale::Test) {
        let mut args = vec![("cold", cold_arg("corpus", t.name))];
        if let Some(n) = interactive_arg(t.name) {
            args.push(("interactive", n));
        }
        out.push(Module {
            name: t.name.to_string(),
            suite: "corpus",
            imports: t.uses_imports,
            bytes: t.bytes,
            args,
        });
    }
    // The hand-assembled binaries are frozen as they are on disk: their
    // value is that no generator of this repo produced their bytes.
    for (name, n) in [("hand_add4", 5), ("hand_noncanon", 5), ("hand_start_data", 3)] {
        let path = repo.join("tests/corpus").join(format!("{name}.wasm"));
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(Module {
            name: name.into(),
            suite: "hand",
            imports: false,
            bytes,
            args: vec![("cold", n)],
        });
    }
    Ok(out)
}

pub fn generate(repo: &Path, out_dir: &Path) -> Result<(), String> {
    let mut modules = suite_modules();
    modules.extend(corpus_modules(repo)?);

    let mut names: Vec<&str> = modules.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("duplicate module name {}", w[0]));
    }

    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let mut expects: Vec<Vec<(i32, Expect)>> = Vec::new();
    for m in &modules {
        let mut ns: Vec<i32> = m.args.iter().map(|(_, n)| *n).collect();
        ns.sort_unstable();
        ns.dedup();
        let mut per_arg = Vec::new();
        for n in ns {
            per_arg.push((n, reference(&m.name, &m.bytes, m.imports, n)?));
        }
        eprintln!(
            "gen-inputs: {:<18} {} bytes, {} argument(s)",
            m.name,
            m.bytes.len(),
            per_arg.len()
        );
        expects.push(per_arg);
    }

    // probe_churn wants instrumentation *changes* to dominate, so it takes
    // the kernels with the most control flow per instruction.
    let churn_arg = |m: &Module| {
        let role = |r: &str| m.args.iter().find(|(name, _)| *name == r).map(|(_, n)| *n);
        role("batch").or(role("exec")).expect("suite kernels have an exec argument")
    };
    let mut density: Vec<(f64, usize)> = modules
        .iter()
        .enumerate()
        .filter(|(_, m)| matches!(m.suite, "polybench" | "ostrich" | "libsodium"))
        .map(|(i, m)| {
            let e = &expects[i].iter().find(|(arg, _)| *arg == churn_arg(m)).expect("computed").1;
            (e.instrs, e.branches as f64 / e.instrs as f64, i)
        })
        .filter(|(instrs, _, _)| *instrs >= CHURN_MIN_INSTRS)
        .map(|(_, density, i)| (density, i))
        .collect();
    density.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in density.iter().take(CHURN_KERNELS) {
        let n = churn_arg(&modules[i]);
        modules[i].args.push(("churn", n));
    }

    let mut listed = Vec::new();
    for (m, per_arg) in modules.iter().zip(&expects) {
        let file = format!("{}.wasm", m.name);
        std::fs::write(out_dir.join(&file), &m.bytes).map_err(|e| e.to_string())?;
        listed.push(Json::obj([
            ("name", Json::str(&m.name)),
            ("suite", Json::str(m.suite)),
            ("file", Json::str(file)),
            ("bytes", Json::Num(m.bytes.len() as f64)),
            ("imports", Json::Bool(m.imports)),
            ("args", Json::obj(m.args.iter().map(|(r, n)| (*r, Json::Num(f64::from(*n)))))),
            (
                "expect",
                Json::Arr(
                    per_arg
                        .iter()
                        .map(|(n, e)| {
                            Json::obj([
                                ("arg", Json::Num(f64::from(*n))),
                                ("result", Json::str(&e.result)),
                                ("instrs", Json::Num(e.instrs as f64)),
                                ("branches", Json::Num(e.branches as f64)),
                                ("trace_events", Json::Num(e.trace_events as f64)),
                                ("trace_bytes", Json::Num(e.trace_bytes as f64)),
                                ("coverage_sites", Json::Num(e.coverage_sites as f64)),
                                ("coverage_digest", Json::str(&e.coverage_digest)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]));
    }
    // One module per line keeps the manifest diffable.
    let lines: Vec<String> = listed.iter().map(|m| format!("  {m}")).collect();
    let text = format!(
        "{{\"version\": 1, \"reference\": \"EngineConfig::interpreter_bytecode()\", \
         \"modules\": [\n{}\n]}}\n",
        lines.join(",\n")
    );
    std::fs::write(out_dir.join("manifest.json"), text).map_err(|e| e.to_string())?;
    eprintln!("gen-inputs: wrote {} modules to {}", modules.len(), out_dir.display());
    Ok(())
}
