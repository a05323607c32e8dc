//! Static analysis for the Wizard engine: CFG/dataflow over decoded
//! function bodies, a translation validator for the register form, and
//! lint passes built on the same facts.
//!
//! The crate has three layers:
//!
//! - [`mod@cfg`] + [`dataflow`]: basic blocks from the validator's branch
//!   side tables, reverse-postorder worklist iteration, and a generic
//!   forward abstract-interpretation driver with stock domains for
//!   constancy ([`dataflow::ConstDomain`]) and stack shape/types
//!   ([`dataflow::TypeDomain`]); reachability falls out of the driver.
//! - [`regvalidator`]: [`validate_register_lowering`] statically proves
//!   each function's register form equivalent to the bytecode it was
//!   lowered from: it runs the byte form and the register form
//!   symbolically in lockstep per basic block and requires equal
//!   observable effects plus the park-point flush invariant at every
//!   label, loop header, call, and taken branch.
//! - Consumers: [`facts::ModuleFacts`] packages per-site constancy /
//!   reachability for wizard-script's probe lowering, and [`lint`]
//!   reports dead code, foldable ops, and redundant get/set pairs.

#![warn(missing_docs)]

pub mod cfg;
pub mod dataflow;
pub mod facts;
pub mod lint;
pub mod regvalidator;

pub use facts::{FuncFacts, ModuleFacts, TosFact};
pub use lint::{lint_module, LintFinding, LintKind};
pub use regvalidator::{
    validate_func_register, validate_register_lowering, validate_sites_register, RegisterMismatch,
};

/// Registers the engine's translation validator, enabling
/// `EngineConfig::builder().validate_lowering(true)` to prove the
/// byte ≡ register translation of every register form a process runs —
/// each function's shared form at instantiation and every instrumented
/// form as it is lowered — with [`validate_sites_register`]. Idempotent;
/// safe to call from tests and mains.
pub fn install_engine_validator() {
    wizard_engine::register_lowering_validator(|artifact, lf, reg| {
        validate_sites_register(artifact, lf, reg).map_err(|e| e.to_string())
    });
}

/// Tests of the crate's translation-validator entry points:
/// [`validate_register_lowering`] over prewarmed artifacts, the per-function
/// diagnostic, and the hook [`install_engine_validator`] registers.
#[cfg(test)]
mod validator {
    mod tests {
        use crate::{install_engine_validator, validate_func_register, validate_register_lowering};
        use wizard_engine::{EngineConfig, ModuleArtifact, Process, Value};
        use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
        use wizard_wasm::types::BlockType;
        use wizard_wasm::types::ValType::I32;

        fn module_for(f: FuncBuilder) -> wizard_wasm::module::Module {
            let mut mb = ModuleBuilder::new();
            mb.add_func("f", f);
            mb.build().expect("validates")
        }

        fn validating() -> EngineConfig {
            install_engine_validator();
            EngineConfig::builder().validate_lowering(true).build()
        }

        /// Validates `rf`, lowered from some other body, against the bytes
        /// of `original`'s only function.
        fn check_against(
            original: &ModuleArtifact,
            rf: &wizard_engine::regir::RegFunc,
        ) -> Result<(), crate::RegisterMismatch> {
            let fa = &original.funcs()[0];
            validate_func_register(
                fa.func,
                &fa.bytes,
                &fa.meta,
                fa.num_results as usize,
                original.func_types(),
                &original.module().types,
                rf,
            )
        }

        #[test]
        fn straight_line_lowering_validates() {
            let mut f = FuncBuilder::new(&[I32], &[I32]);
            f.local_get(0).i32_const(1).i32_add();
            let m = module_for(f);
            let artifact = ModuleArtifact::new(m.clone()).expect("validates");
            artifact.lower_all();
            validate_register_lowering(&artifact).expect("lowering is faithful");

            let mut p = Process::new(m, validating(), &Default::default()).expect("validates");
            assert_eq!(p.stats().lowering_validations, 1, "the engine hook ran");
            assert_eq!(p.invoke_export("f", &[Value::I32(41)]).unwrap(), [Value::I32(42)]);
        }

        /// Every suite kernel's prewarmed register forms validate, both
        /// directly and through the hook at instantiation.
        #[test]
        fn all_suite_kernels_validate() {
            for b in wizard_suites::all_suites(wizard_suites::Scale::Test) {
                let artifact = ModuleArtifact::new(b.module.clone()).expect("kernel validates");
                artifact.lower_all();
                if let Err(e) = validate_register_lowering(&artifact) {
                    panic!("{}/{}: {e}", b.suite, b.name);
                }
                let p = Process::new(b.module, validating(), &Default::default())
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", b.suite, b.name));
                assert_eq!(p.stats().lowering_validations, 1, "{}/{}", b.suite, b.name);
            }
        }

        #[test]
        fn corrupted_const_payload_is_rejected_with_precise_diagnostic() {
            // Two bodies identical except for one const payload: lower the
            // tampered body, then validate that lowering against the
            // *original* bytes.
            let build = |c: i32| {
                let mut f = FuncBuilder::new(&[I32], &[I32]);
                f.local_get(0).drop_();
                f.i32_const(c);
                ModuleArtifact::new(module_for(f)).expect("validates")
            };
            let original = build(5);
            let tampered = build(6);
            let bad = tampered.reg_func(0).expect("lowers");
            let err = check_against(&original, bad).expect_err("corrupted stream must be rejected");
            // The register form folds the const into the value it returns,
            // so the validator pinpoints where that value is observed: the
            // implicit return at the body's end. local.get (2 bytes), drop
            // (1), i32.const (2) and end (1) put it at pc=6.
            assert_eq!(err.func, 0);
            assert_eq!(err.pc as usize, original.funcs()[0].bytes.len());
            assert_eq!(err.pc, 6);
            assert!(err.msg.contains("return value diverges"), "{err}");
            let shown = err.to_string();
            assert!(shown.contains("func 0") && shown.contains("pc=6"), "diagnostic: {shown}");
        }

        #[test]
        fn branch_target_corruption_is_rejected() {
            // Two bodies of the same instructions and length whose `br_if`
            // leaves a different block: the register form of one must not
            // validate against the other's bytes.
            let build = |depth: u32| {
                let mut f = FuncBuilder::new(&[I32], &[I32]);
                f.block(BlockType::Empty).block(BlockType::Empty);
                f.local_get(0).br_if(depth);
                f.i32_const(1).local_set(0).end();
                f.i32_const(2).local_set(0).end();
                f.local_get(0);
                ModuleArtifact::new(module_for(f)).expect("validates")
            };
            let (inner, outer) = (build(0), build(1));
            assert_eq!(inner.funcs()[0].bytes.len(), outer.funcs()[0].bytes.len());
            check_against(&inner, inner.reg_func(0).unwrap()).expect("faithful form validates");
            let bad = outer.reg_func(0).expect("lowers");
            let err = check_against(&inner, bad).expect_err("wrong branch target must be rejected");
            assert_eq!(err.func, 0, "{err}");
        }
    }
}
