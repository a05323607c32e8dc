//! Emission helpers shared by the benchmark kernels: array addressing,
//! deterministic initialization, reductions, and counted loops.
//!
//! Array convention: `f64` matrices are stored row-major with a *runtime*
//! stride equal to the problem size `n`; element `(i, j)` of the array at
//! byte offset `base` lives at `base + (i*n + j) * 8`.

use wizard_wasm::builder::FuncBuilder;
use wizard_wasm::module::LocalIdx;
use wizard_wasm::types::BlockType;

/// Pushes the address of `f64` element `base[i]`.
pub fn a1(f: &mut FuncBuilder, base: i32, i: LocalIdx) {
    f.local_get(i).i32_const(8).i32_mul().i32_const(base).i32_add();
}

/// Pushes the address of `f64` element `base[i*n + j]` (stride local `n`).
pub fn a2(f: &mut FuncBuilder, base: i32, i: LocalIdx, j: LocalIdx, n: LocalIdx) {
    f.local_get(i)
        .local_get(n)
        .i32_mul()
        .local_get(j)
        .i32_add()
        .i32_const(8)
        .i32_mul()
        .i32_const(base)
        .i32_add();
}

/// Pushes the address of `f64` element `base[(i*n + j)*n + k]`.
pub fn a3(f: &mut FuncBuilder, base: i32, i: LocalIdx, j: LocalIdx, k: LocalIdx, n: LocalIdx) {
    f.local_get(i)
        .local_get(n)
        .i32_mul()
        .local_get(j)
        .i32_add()
        .local_get(n)
        .i32_mul()
        .local_get(k)
        .i32_add()
        .i32_const(8)
        .i32_mul()
        .i32_const(base)
        .i32_add();
}

/// Loads `f64` `base[i]`.
pub fn ld1(f: &mut FuncBuilder, base: i32, i: LocalIdx) {
    a1(f, base, i);
    f.f64_load(0);
}

/// Loads `f64` `base[i*n + j]`.
pub fn ld2(f: &mut FuncBuilder, base: i32, i: LocalIdx, j: LocalIdx, n: LocalIdx) {
    a2(f, base, i, j, n);
    f.f64_load(0);
}

/// Stores to `base[i]` the value produced by `val`.
pub fn st1(f: &mut FuncBuilder, base: i32, i: LocalIdx, val: impl FnOnce(&mut FuncBuilder)) {
    a1(f, base, i);
    val(f);
    f.f64_store(0);
}

/// Stores to `base[i*n + j]` the value produced by `val`.
pub fn st2(
    f: &mut FuncBuilder,
    base: i32,
    i: LocalIdx,
    j: LocalIdx,
    n: LocalIdx,
    val: impl FnOnce(&mut FuncBuilder),
) {
    a2(f, base, i, j, n);
    val(f);
    f.f64_store(0);
}

/// Emits `for (i = n-1; i >= 0; i--) { body }`.
pub fn for_down(
    f: &mut FuncBuilder,
    i: LocalIdx,
    n: LocalIdx,
    body: impl FnOnce(&mut FuncBuilder),
) {
    f.local_get(n).i32_const(1).i32_sub().local_set(i);
    f.block(BlockType::Empty);
    f.loop_(BlockType::Empty);
    f.local_get(i).i32_const(0).i32_lt_s().br_if(1);
    body(f);
    f.local_get(i).i32_const(1).i32_sub().local_set(i);
    f.br(0);
    f.end();
    f.end();
}

/// Fills the `count`-element `f64` array at `base` with deterministic
/// pseudo-data in roughly `[0.1, 1.1)`:
/// `base[k] = ((k*salt + 3) % 97) / 97.0 + 0.1`.
///
/// Uses `k` as the loop counter local and `count` as the bound local.
pub fn fill1(f: &mut FuncBuilder, base: i32, k: LocalIdx, count: LocalIdx, salt: i32) {
    f.for_range(k, count, |f| {
        st1(f, base, k, |f| {
            f.local_get(k)
                .i32_const(salt)
                .i32_mul()
                .i32_const(3)
                .i32_add()
                .i32_const(97)
                .i32_rem_s()
                .f64_convert_i32_s()
                .f64_const(97.0)
                .f64_div()
                .f64_const(0.1)
                .f64_add();
        });
    });
}

/// Fills an `n × n` `f64` matrix at `base` (loop locals `i`, `j`).
pub fn fill2(f: &mut FuncBuilder, base: i32, i: LocalIdx, j: LocalIdx, n: LocalIdx, salt: i32) {
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            st2(f, base, i, j, n, |f| {
                f.local_get(i)
                    .i32_const(salt)
                    .i32_mul()
                    .local_get(j)
                    .i32_add()
                    .i32_const(5)
                    .i32_add()
                    .i32_const(97)
                    .i32_rem_s()
                    .f64_convert_i32_s()
                    .f64_const(97.0)
                    .f64_div()
                    .f64_const(0.1)
                    .f64_add();
            });
        });
    });
}

/// Sums the `count` `f64`s at `base` into local `acc` (an f64 local),
/// using `k` as the loop counter. Leaves `acc` updated.
pub fn checksum1(f: &mut FuncBuilder, base: i32, k: LocalIdx, count: LocalIdx, acc: LocalIdx) {
    f.for_range(k, count, |f| {
        f.local_get(acc);
        ld1(f, base, k);
        f.f64_add().local_set(acc);
    });
}

/// Sums the `n × n` `f64`s at `base` into f64 local `acc`.
pub fn checksum2(
    f: &mut FuncBuilder,
    base: i32,
    i: LocalIdx,
    j: LocalIdx,
    n: LocalIdx,
    acc: LocalIdx,
) {
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            f.local_get(acc);
            ld2(f, base, i, j, n);
            f.f64_add().local_set(acc);
        });
    });
}

/// Standard matrix base offsets (spaced for n ≤ 128 f64 matrices).
pub mod bases {
    /// Matrix A.
    pub const A: i32 = 0x0000_0000;
    /// Matrix B.
    pub const B: i32 = 0x0002_0000;
    /// Matrix C.
    pub const C: i32 = 0x0004_0000;
    /// Matrix D.
    pub const D: i32 = 0x0006_0000;
    /// Matrix E.
    pub const E: i32 = 0x0008_0000;
    /// Vector x.
    pub const X: i32 = 0x000a_0000;
    /// Vector y.
    pub const Y: i32 = 0x000a_8000;
    /// Vector z / tmp.
    pub const Z: i32 = 0x000b_0000;
    /// Vector w / second tmp.
    pub const W: i32 = 0x000b_8000;
    /// Total pages needed (768 KiB).
    pub const PAGES: u32 = 12;
}

#[cfg(test)]
mod tests {
    use wizard_engine::store::Linker;
    use wizard_engine::{EngineConfig, Process, Value};
    use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
    use wizard_wasm::types::ValType::{F64, I32};

    use super::*;

    #[test]
    fn fill_and_checksum_roundtrip() {
        let mut mb = ModuleBuilder::new();
        mb.memory(bases::PAGES);
        let mut f = FuncBuilder::new(&[I32], &[F64]);
        let n = 0;
        let i = f.local(I32);
        let j = f.local(I32);
        let acc = f.local(F64);
        fill2(&mut f, bases::A, i, j, n, 7);
        checksum2(&mut f, bases::A, i, j, n, acc);
        f.local_get(acc);
        mb.add_func("run", f);
        let m = mb.build().unwrap();
        let mut p1 =
            Process::new(m.clone(), EngineConfig::interpreter_bytecode(), &Linker::new()).unwrap();
        let mut p2 = Process::new(m, EngineConfig::default(), &Linker::new()).unwrap();
        let r1 = p1.invoke_export("run", &[Value::I32(16)]).unwrap();
        let r2 = p2.invoke_export("run", &[Value::I32(16)]).unwrap();
        assert_eq!(r1, r2, "tiers agree bit-exactly");
        let v = r1[0].as_f64().unwrap();
        assert!(v > 16.0 && v < 300.0, "checksum in plausible range: {v}");
    }

    #[test]
    fn for_down_counts_backwards() {
        let mut mb = ModuleBuilder::new();
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let i = f.local(I32);
        let acc = f.local(I32);
        for_down(&mut f, i, 0, |f| {
            // acc = acc * 10 + i  (records order)
            f.local_get(acc).i32_const(10).i32_mul().local_get(i).i32_add().local_set(acc);
        });
        f.local_get(acc);
        mb.add_func("run", f);
        let mut p =
            Process::new(mb.build().unwrap(), EngineConfig::interpreter(), &Linker::new()).unwrap();
        let r = p.invoke_export("run", &[Value::I32(4)]).unwrap();
        assert_eq!(r, vec![Value::I32(3210)]);
    }
}
