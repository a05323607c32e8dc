//! `wizard-suites`: the paper's benchmark programs as Wasm module
//! generators — PolyBench/C, Ostrich-style, libsodium-style, and a
//! Richards-style scheduler (for the JVMTI comparison).
//!
//! Every kernel is real WebAssembly produced by the `wizard-wasm`
//! assembler DSL and validated by its type checker; there is no C
//! toolchain in the loop (see DESIGN.md for the substitution table).
//! All kernels export `run(n: i32)` returning a checksum, so correctness
//! can be established differentially across engine tiers and baseline
//! systems.

#![warn(missing_docs)]

pub mod corpus;
pub mod dsl;
pub mod libsodium;
pub mod ostrich;
pub mod polybench;
pub mod randgen;
pub mod richards;

use wizard_wasm::module::Module;

/// Problem-size presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Tiny inputs for unit tests.
    Test,
    /// Default benchmarking size (sub-second per kernel in the interpreter).
    #[default]
    Small,
    /// Larger runs for more stable timing.
    Medium,
}

/// One benchmark program: a module exporting `run(n) -> checksum`.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Suite name: `polybench`, `ostrich`, or `libsodium`.
    pub suite: &'static str,
    /// Program name (matching the paper's figure labels).
    pub name: &'static str,
    /// The compiled-to-Wasm program.
    pub module: Module,
    /// The `run` argument at the chosen scale.
    pub n: i32,
}

/// The PolyBench suite at `scale`.
pub fn polybench_suite(scale: Scale) -> Vec<Benchmark> {
    let (n, n3) = match scale {
        Scale::Test => (8, 5),
        Scale::Small => (18, 8),
        Scale::Medium => (28, 12),
    };
    polybench::all()
        .into_iter()
        .map(|(name, module)| Benchmark {
            suite: "polybench",
            name,
            module,
            n: if polybench::is_cubic(name) { n3 } else { n },
        })
        .collect()
}

/// The Ostrich-style suite at `scale`.
pub fn ostrich_suite(scale: Scale) -> Vec<Benchmark> {
    let n = match scale {
        Scale::Test => 1,
        Scale::Small => 2,
        Scale::Medium => 4,
    };
    ostrich::all()
        .into_iter()
        .map(|(name, module)| Benchmark { suite: "ostrich", name, module, n })
        .collect()
}

/// The libsodium-style suite at `scale`.
pub fn libsodium_suite(scale: Scale) -> Vec<Benchmark> {
    let n = match scale {
        Scale::Test => 1,
        Scale::Small => 2,
        Scale::Medium => 4,
    };
    libsodium::all()
        .into_iter()
        .map(|(name, module)| Benchmark { suite: "libsodium", name, module, n })
        .collect()
}

/// All three suites, concatenated.
pub fn all_suites(scale: Scale) -> Vec<Benchmark> {
    let mut v = polybench_suite(scale);
    v.extend(libsodium_suite(scale));
    v.extend(ostrich_suite(scale));
    v
}

/// The Richards-style scheduler benchmark (used by the JVMTI experiment).
pub fn richards_benchmark(loops: i32) -> Benchmark {
    Benchmark { suite: "richards", name: "richards", module: richards::module(), n: loops }
}

/// A mixed fleet for multi-process scheduling experiments (`wizard-pool`):
/// `size` jobs drawn from the Richards scheduler and the PolyBench
/// kernels, interleaved so every worker gets a heterogeneous mix of
/// control-flow-heavy and loop-heavy programs.
pub fn fleet(scale: Scale, size: usize) -> Vec<Benchmark> {
    let richards_loops = match scale {
        Scale::Test => 20,
        Scale::Small => 100,
        Scale::Medium => 300,
    };
    let pb = polybench_suite(scale);
    (0..size)
        .map(
            |k| {
                if k % 4 == 0 {
                    richards_benchmark(richards_loops)
                } else {
                    pb[k % pb.len()].clone()
                }
            },
        )
        .collect()
}

/// One job spec of a multi-tenant serving fleet
/// ([`tenant_fleet`]): a kernel plus the tenant and scheduling class it
/// should be served under. The class is a plain dense integer (0 = most
/// urgent) so this crate does not depend on the pool's `Priority` type.
#[derive(Debug, Clone)]
pub struct TenantJob {
    /// Tenant the job bills to.
    pub tenant: &'static str,
    /// Scheduling class: 0 = high, 1 = normal, 2 = low.
    pub class: u8,
    /// Suite the kernel came from.
    pub suite: &'static str,
    /// Kernel name.
    pub name: &'static str,
    /// The module; exports `run(n) -> checksum`.
    pub module: Module,
    /// The `run` argument.
    pub n: i32,
    /// Whether the module imports host functions/globals and needs a
    /// shim-built linker (ingestion-corpus kernels).
    pub uses_imports: bool,
}

/// A mixed multi-tenant fleet for serving experiments: three tenants
/// with distinct traffic shapes, interleaved deterministically —
///
/// * `interactive` (class 0, high): short ingestion-corpus requests
///   (crc32, base64, hashtable) — the latency-sensitive traffic whose
///   p99 the serving engine must protect;
/// * `batch` (class 1, normal): the PolyBench kernels in rotation;
/// * `background` (class 2, low): Richards scheduler runs and cubic
///   PolyBench kernels — the long jobs that would head-of-line-block a
///   scheduler without preemption and stealing.
pub fn tenant_fleet(scale: Scale, size: usize) -> Vec<TenantJob> {
    let richards_loops = match scale {
        Scale::Test => 20,
        Scale::Small => 100,
        Scale::Medium => 300,
    };
    let light: Vec<corpus::CorpusEntry> = corpus::corpus(scale)
        .into_iter()
        .filter(|e| matches!(e.name, "crc32" | "base64" | "hashtable"))
        .collect();
    let pb = polybench_suite(scale);
    let heavy: Vec<Benchmark> =
        pb.iter().filter(|b| polybench::is_cubic(b.name)).cloned().collect();
    (0..size)
        .map(|k| match k % 3 {
            0 => {
                let e = &light[(k / 3) % light.len()];
                TenantJob {
                    tenant: "interactive",
                    class: 0,
                    suite: "corpus",
                    name: e.name,
                    module: e.module.clone(),
                    n: e.n,
                    uses_imports: e.uses_imports,
                }
            }
            1 => {
                let b = &pb[(k / 3) % pb.len()];
                TenantJob {
                    tenant: "batch",
                    class: 1,
                    suite: b.suite,
                    name: b.name,
                    module: b.module.clone(),
                    n: b.n,
                    uses_imports: false,
                }
            }
            _ => {
                if (k / 3) % 2 == 0 {
                    let r = richards_benchmark(richards_loops);
                    TenantJob {
                        tenant: "background",
                        class: 2,
                        suite: r.suite,
                        name: r.name,
                        module: r.module,
                        n: r.n,
                        uses_imports: false,
                    }
                } else {
                    let b = &heavy[(k / 3) % heavy.len()];
                    TenantJob {
                        tenant: "background",
                        class: 2,
                        suite: b.suite,
                        name: b.name,
                        module: b.module.clone(),
                        n: b.n,
                        uses_imports: false,
                    }
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_registries_are_complete() {
        let pb = polybench_suite(Scale::Test);
        assert_eq!(pb.len(), 29);
        assert!(pb.iter().any(|b| b.name == "floyd-warshall"));
        let os = ostrich_suite(Scale::Test);
        assert_eq!(os.len(), 10);
        let ls = libsodium_suite(Scale::Test);
        assert_eq!(ls.len(), 10);
        assert_eq!(all_suites(Scale::Test).len(), 49);
    }

    #[test]
    fn fleet_mixes_richards_and_polybench() {
        let f = fleet(Scale::Test, 8);
        assert_eq!(f.len(), 8);
        assert_eq!(f.iter().filter(|b| b.suite == "richards").count(), 2);
        assert!(f.iter().any(|b| b.suite == "polybench"));
    }

    #[test]
    fn tenant_fleet_covers_all_tenants_and_classes() {
        let f = tenant_fleet(Scale::Test, 12);
        assert_eq!(f.len(), 12);
        for tenant in ["interactive", "batch", "background"] {
            assert!(f.iter().any(|j| j.tenant == tenant), "missing {tenant}");
        }
        // Classes are dense and tied to tenants.
        assert!(f.iter().all(|j| match j.tenant {
            "interactive" => j.class == 0,
            "batch" => j.class == 1,
            _ => j.class == 2,
        }));
        // Interactive traffic comes from the ingestion corpus, including
        // at least one import-using module (needs a shim linker).
        assert!(f.iter().filter(|j| j.tenant == "interactive").all(|j| j.suite == "corpus"));
        assert!(f.iter().any(|j| j.uses_imports));
        // Background includes the long richards jobs.
        assert!(f.iter().any(|j| j.name == "richards"));
    }

    #[test]
    fn suite_modules_are_cached_and_deterministic() {
        // The registries memoize their built modules; repeated calls hand
        // out byte-identical clones (so a fleet's jobs all resolve to one
        // shared artifact in wizard-pool's cache).
        let a = polybench::all();
        let b = polybench::all();
        let enc = |m: &wizard_wasm::Module| wizard_wasm::encode::encode(m);
        for ((na, ma), (nb, mb)) in a.iter().zip(b.iter()) {
            assert_eq!(na, nb);
            assert_eq!(enc(ma), enc(mb), "{na}: cached module differs across calls");
        }
        assert_eq!(
            enc(&richards::module()),
            enc(&richards::module()),
            "richards module is deterministic"
        );
    }

    #[test]
    fn cubic_kernels_get_smaller_sizes() {
        let pb = polybench_suite(Scale::Small);
        let heat = pb.iter().find(|b| b.name == "heat-3d").unwrap();
        let gemm = pb.iter().find(|b| b.name == "gemm").unwrap();
        assert!(heat.n < gemm.n);
    }
}
