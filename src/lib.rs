//! `wizard`: facade crate for the `wizard-rs` workspace — a Rust
//! reproduction of *Flexible Non-intrusive Dynamic Instrumentation for
//! WebAssembly* (Titzer et al., ASPLOS 2024).
//!
//! Re-exports the member crates:
//!
//! * [`wasm`] — module IR, binary codec, validator, assembler DSL;
//! * [`analysis`] — CFG/dataflow framework and the translation validator
//!   for the lowered pipeline (`wasm-lint`, `validate_lowering`);
//! * [`engine`] — the multi-tier engine with probes, FrameAccessor, JIT
//!   intrinsification and deoptimization (the paper's contribution);
//! * [`monitors`] — the Monitor Zoo;
//! * [`pool`] — the multi-process scheduler (work-stealing, fuel-sliced,
//!   multi-tenant) with its serving and batch fronts;
//! * [`script`] — wizard-script, the declarative match-rule
//!   instrumentation language compiled onto the probe engine;
//! * [`trace`] — compact streaming trace capture (binary branch/call
//!   trace format, pluggable sinks) and offline analyzers
//!   (branch-predictor simulation, SimPoint-style phase detection);
//! * [`rewriter`] — static bytecode rewriting (intrusive baseline);
//! * [`baselines`] — Wasabi-style, DynamoRIO-style and JVMTI-style
//!   comparison systems;
//! * [`suites`] — PolyBench / Ostrich-like / libsodium-like / Richards
//!   benchmark generators.
//!
//! See the `examples/` directory for runnable entry points and
//! `EXPERIMENTS.md` for the paper-figure reproduction harness.

#![warn(missing_docs)]

pub use wizard_analysis as analysis;
pub use wizard_baselines as baselines;
pub use wizard_engine as engine;
pub use wizard_monitors as monitors;
pub use wizard_pool as pool;
pub use wizard_rewriter as rewriter;
pub use wizard_script as script;
pub use wizard_suites as suites;
pub use wizard_trace as trace;
pub use wizard_wasm as wasm;
