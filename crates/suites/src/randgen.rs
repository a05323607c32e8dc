//! Deterministic random-module generation, shared by the differential
//! harness (`tests/differential.rs`) and the conformance suite's
//! round-trip property.
//!
//! A seeded xorshift64* PRNG drives a small program generator over the
//! builder DSL: arithmetic, locals, `if`/`else`, nested constant loops,
//! and trapping division. Every generated module validates and exports
//! `run(i32) -> i32` whose outer loop is bounded by the parameter, so
//! generated programs always terminate.

use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::module::Module;
use wizard_wasm::types::BlockType;
use wizard_wasm::types::ValType::I32;

/// xorshift64* — deterministic, dependency-free.
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator (any seed, including 0, is fine).
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    /// Next raw 64-bit value. (Deliberately named like an RNG, not an
    /// `Iterator` — the stream is infinite and never yields `None`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Emits a random i32 expression of bounded depth; every path leaves
/// exactly one i32 on the stack. `locals` is the number of readable
/// locals (params + declared).
fn emit_expr(f: &mut FuncBuilder, rng: &mut Rng, locals: u32, depth: u32) {
    if depth == 0 || rng.below(4) == 0 {
        if rng.below(2) == 0 {
            f.i32_const(rng.next() as i32);
        } else {
            f.local_get(rng.below(u64::from(locals)) as u32);
        }
        return;
    }
    match rng.below(12) {
        0..=5 => {
            emit_expr(f, rng, locals, depth - 1);
            emit_expr(f, rng, locals, depth - 1);
            match rng.below(6) {
                0 => f.i32_add(),
                1 => f.i32_sub(),
                2 => f.i32_mul(),
                3 => f.i32_and(),
                4 => f.i32_xor(),
                _ => f.i32_or(),
            };
        }
        6 => {
            emit_expr(f, rng, locals, depth - 1);
            emit_expr(f, rng, locals, depth - 1);
            // Trapping operations: division by zero and overflow must
            // unwind identically everywhere.
            if rng.below(2) == 0 {
                f.i32_div_s();
            } else {
                f.i32_rem_s();
            }
        }
        7 => {
            emit_expr(f, rng, locals, depth - 1);
            f.i32_eqz();
        }
        8 => {
            emit_expr(f, rng, locals, depth - 1);
            emit_expr(f, rng, locals, depth - 1);
            f.i32_lt_s();
        }
        9 => {
            emit_expr(f, rng, locals, depth - 1);
            emit_expr(f, rng, locals, depth - 1);
            emit_expr(f, rng, locals, depth - 1);
            f.select();
        }
        _ => {
            emit_expr(f, rng, locals, depth - 1);
            emit_expr(f, rng, locals, depth - 1);
            match rng.below(3) {
                0 => f.i32_shl(),
                1 => f.i32_shr_s(),
                _ => f.i32_rotl(),
            };
        }
    }
}

/// Picks a writable local: never index 0 — that is the parameter, which
/// bounds the outer loop; overwriting it would make generated programs
/// run unboundedly.
fn writable(rng: &mut Rng, locals: u32) -> u32 {
    1 + rng.below(u64::from(locals - 1)) as u32
}

/// Emits a random statement (net stack effect zero).
fn emit_stmt(f: &mut FuncBuilder, rng: &mut Rng, locals: u32, depth: u32) {
    match rng.below(4) {
        // local := expr
        0 | 1 => {
            emit_expr(f, rng, locals, 2);
            let dst = writable(rng, locals);
            f.local_set(dst);
        }
        // if/else on a random condition
        2 => {
            emit_expr(f, rng, locals, 2);
            f.if_(BlockType::Empty);
            emit_expr(f, rng, locals, 1);
            let dst = writable(rng, locals);
            f.local_set(dst);
            if rng.below(2) == 0 {
                f.else_();
                emit_expr(f, rng, locals, 1);
                let dst = writable(rng, locals);
                f.local_set(dst);
            }
            f.end();
        }
        // small nested constant loop
        _ => {
            if depth > 0 {
                let i = f.local(I32);
                let n = 1 + rng.below(4) as i32;
                let inner = 1 + rng.below(2) as u32;
                f.for_const(i, n, |f| {
                    for _ in 0..inner {
                        emit_stmt(f, rng, locals, depth - 1);
                    }
                });
            } else {
                emit_expr(f, rng, locals, 1);
                let dst = writable(rng, locals);
                f.local_set(dst);
            }
        }
    }
}

/// Builds a random module: one exported `run(i32) -> i32` with a
/// parameter-bounded outer loop whose body is a random statement list,
/// returning a mix of the locals. Deterministic in `seed`.
pub fn random_module(seed: u64) -> Module {
    let mut rng = Rng::new(seed);
    let mut mb = ModuleBuilder::new();
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let n_locals = 2 + rng.below(3) as u32; // declared i32 locals
    for _ in 0..n_locals {
        f.local(I32);
    }
    let locals = 1 + n_locals; // param + declared
    let i = f.local(I32);
    let n_stmts = 1 + rng.below(3);
    f.for_range(i, 0, |f| {
        for _ in 0..n_stmts {
            emit_stmt(f, &mut rng, locals, 1);
        }
    });
    // Fold every local into the result.
    f.local_get(0);
    for k in 1..locals {
        f.local_get(k);
        f.i32_add();
    }
    mb.add_func("run", f);
    mb.build().expect("generated module validates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_wasm::encode::encode;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for seed in [0u64, 1, 7, 12345] {
            assert_eq!(encode(&random_module(seed)), encode(&random_module(seed)));
        }
        assert_ne!(encode(&random_module(1)), encode(&random_module(2)));
    }

    #[test]
    fn generated_modules_round_trip_through_the_binary_format() {
        for seed in 0..25u64 {
            let m = random_module(seed);
            let bytes = encode(&m);
            let m2 = wizard_wasm::decode::decode(&bytes).expect("decodes");
            assert_eq!(encode(&m2), bytes, "seed {seed}: re-encode differs");
        }
    }
}
