//! The frozen inputs: `inputs/*.wasm` plus `inputs/manifest.json`. The
//! run path reads only these files; `gen-inputs` (behind the cargo feature
//! of the same name) is the only writer.

use std::path::{Path, PathBuf};

use crate::json::Json;

/// What the reference dispatch loop (`EngineConfig::interpreter_bytecode()`)
/// produced for one `(module, argument)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect {
    /// `run(n)`'s results, spelled by `surface::result_string`.
    pub result: String,
    /// Bytecode instructions executed (hotness total).
    pub instrs: u64,
    /// Branch instructions executed.
    pub branches: u64,
    pub trace_events: u64,
    pub trace_bytes: u64,
    /// Distinct instruction sites executed, and an FNV-1a digest of the
    /// sorted `(func, pc)` list.
    pub coverage_sites: u64,
    pub coverage_digest: String,
}

/// One frozen module.
#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    /// Needs a shim-built linker.
    pub imports: bool,
    pub bytes: Vec<u8>,
    /// Entry argument per role (`exec`, `churn`, `cold`, `interactive`,
    /// `batch`, `background`); a module takes part in a workload only if
    /// it has that workload's role.
    pub args: Vec<(String, i32)>,
    pub expect: Vec<(i32, Expect)>,
}

impl Input {
    pub fn arg(&self, role: &str) -> Option<i32> {
        self.args.iter().find(|(r, _)| r == role).map(|(_, n)| *n)
    }

    pub fn expect(&self, n: i32) -> &Expect {
        let found = self.expect.iter().find(|(arg, _)| *arg == n);
        &found.unwrap_or_else(|| panic!("manifest has no expectation for {}({n})", self.name)).1
    }
}

pub struct Inputs {
    pub modules: Vec<Input>,
}

impl Inputs {
    /// `(index in the manifest, module, argument)` for every module with
    /// `role`, in manifest order.
    pub fn with_role(&self, role: &str) -> Vec<(usize, &Input, i32)> {
        let all = self.modules.iter().enumerate();
        all.filter_map(|(i, m)| m.arg(role).map(|n| (i, m, n))).collect()
    }

    pub fn load(dir: &Path) -> Result<Inputs, String> {
        let path = dir.join("manifest.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text)?;
        let list = doc.get("modules").and_then(Json::as_arr).ok_or("manifest: no modules")?;
        let mut modules = Vec::with_capacity(list.len());
        for m in list {
            let text = |k: &str| {
                m.get(k).and_then(Json::as_str).map(str::to_owned).ok_or(format!("manifest: {k}"))
            };
            let name = text("name")?;
            let file = dir.join(text("file")?);
            let bytes = std::fs::read(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let args = m
                .get("args")
                .and_then(Json::as_obj)
                .ok_or("manifest: args")?
                .iter()
                .map(|(role, n)| Ok((role.clone(), n.as_f64().ok_or("manifest: arg")? as i32)))
                .collect::<Result<Vec<_>, String>>()?;
            let expect = m
                .get("expect")
                .and_then(Json::as_arr)
                .ok_or("manifest: expect")?
                .iter()
                .map(parse_expect)
                .collect::<Result<Vec<_>, String>>()?;
            modules.push(Input {
                name,
                imports: m.get("imports").and_then(Json::as_bool).ok_or("manifest: imports")?,
                bytes,
                args,
                expect,
            });
        }
        Ok(Inputs { modules })
    }
}

fn parse_expect(e: &Json) -> Result<(i32, Expect), String> {
    let num = |k: &str| e.get(k).and_then(Json::as_f64).ok_or(format!("manifest: expect.{k}"));
    let text = |k: &str| {
        e.get(k).and_then(Json::as_str).map(str::to_owned).ok_or(format!("manifest: expect.{k}"))
    };
    Ok((
        num("arg")? as i32,
        Expect {
            result: text("result")?,
            instrs: num("instrs")? as u64,
            branches: num("branches")? as u64,
            trace_events: num("trace_events")? as u64,
            trace_bytes: num("trace_bytes")? as u64,
            coverage_sites: num("coverage_sites")? as u64,
            coverage_digest: text("coverage_digest")?,
        },
    ))
}

/// FNV-1a over sorted `(func, pc)` pairs, as 16 hex digits.
pub fn coverage_digest(sorted_sites: &[(u32, u32)]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (func, pc) in sorted_sites {
        for b in func.to_le_bytes().into_iter().chain(pc.to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The benchmark's own directory: `./benchmark` when run from the repo
/// root (how the driver and `cargo run --manifest-path` invoke it), else
/// the directory this package was built from.
pub fn bench_dir() -> PathBuf {
    let local = Path::new("benchmark");
    if local.join("inputs").join("manifest.json").is_file() {
        local.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}
