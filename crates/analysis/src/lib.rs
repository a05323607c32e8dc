//! Static analysis for the Wizard engine: CFG/dataflow over decoded
//! function bodies, a translation validator for the lowered pipeline,
//! and lint passes built on the same facts.
//!
//! The crate has three layers:
//!
//! - [`mod@cfg`] + [`dataflow`]: basic blocks from the validator's branch
//!   side tables, reverse-postorder worklist iteration, and a generic
//!   forward abstract-interpretation driver with stock domains for
//!   constancy ([`dataflow::ConstDomain`]) and stack shape/types
//!   ([`dataflow::TypeDomain`]); reachability falls out of the driver.
//! - [`validator`]: [`validate_lowering`] statically proves the
//!   pre-decoded `LInstr` stream equivalent to the bytecode it was
//!   lowered from — effect equality per slot and pc↔slot bijectivity.
//!   [`regvalidator`] extends the proof to the register tier:
//!   [`validate_register_lowering`] runs the byte form and the
//!   register form symbolically in lockstep per basic block and
//!   requires equal observable effects plus the park-point flush
//!   invariant at every label, loop header, call, and taken branch.
//! - Consumers: [`facts::ModuleFacts`] packages per-site constancy /
//!   reachability for wizard-script's probe lowering, and [`lint`]
//!   reports dead code, foldable ops, and redundant get/set pairs.

#![warn(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod facts;
pub mod lint;
pub mod regvalidator;
pub mod validator;

pub use facts::{FuncFacts, ModuleFacts, TosFact};
pub use lint::{lint_module, LintFinding, LintKind};
pub use regvalidator::{
    validate_func_register, validate_register_lowering, validate_sites_register, RegisterMismatch,
};
pub use validator::{validate_func_lowering, validate_lowering, LoweringMismatch};

/// Registers the engine's translation validators, enabling
/// `EngineConfig::builder().validate_lowering(true)` to check every
/// instantiation — [`validate_lowering`] and [`validate_register_lowering`]
/// prove the byte ≡ lowered and byte ≡ register translations of every
/// function (building the register forms not built yet) — and every
/// instrumented register form a process lowers, with
/// [`validate_sites_register`]. Idempotent; safe to call from tests and
/// mains.
pub fn install_engine_validator() {
    wizard_engine::register_lowering_validator(
        |artifact| {
            validate_lowering(artifact).map_err(|e| e.to_string())?;
            validate_register_lowering(artifact).map_err(|e| e.to_string())
        },
        |artifact, lf, reg| validate_sites_register(artifact, lf, reg).map_err(|e| e.to_string()),
    );
}
