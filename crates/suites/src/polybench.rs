//! The PolyBench/C kernels (Pouchet), hand-written against the Wasm
//! assembler DSL — the paper's primary evaluation suite (Figures 3–7).
//!
//! Every kernel exports `run(n: i32) -> f64`: deterministic initialization,
//! the kernel's loop nest, and a checksum over the output array. Problem
//! sizes are runtime parameters (n ≤ 128; 3-D kernels n ≤ 32), replacing
//! PolyBench's compile-time `medium` dataset with a tunable one.

use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::module::{LocalIdx, Module};
use wizard_wasm::types::BlockType;
use wizard_wasm::types::ValType::{F64, I32};

use crate::dsl::{a1, a2, checksum1, checksum2, fill1, fill2, for_down, ld1, ld2, st1, st2};

const M: i32 = 0x2_0000;
const fn mat(k: i32) -> i32 {
    k * M
}
const fn vc(k: i32) -> i32 {
    0xe_0000 + k * 0x2000
}
const PAGES: u32 = 16;

/// Standard kernel frame: `run(n) -> f64` with scratch locals.
struct K {
    f: FuncBuilder,
    n: LocalIdx,
    i: LocalIdx,
    j: LocalIdx,
    k: LocalIdx,
    t: LocalIdx,
    u: LocalIdx,
    acc: LocalIdx,
    fa: LocalIdx,
    fb: LocalIdx,
}

fn kern() -> K {
    let mut f = FuncBuilder::new(&[I32], &[F64]);
    let i = f.local(I32);
    let j = f.local(I32);
    let k = f.local(I32);
    let t = f.local(I32);
    let u = f.local(I32);
    let acc = f.local(F64);
    let fa = f.local(F64);
    let fb = f.local(F64);
    K { f, n: 0, i, j, k, t, u, acc, fa, fb }
}

fn module(name: &str, mut kk: K) -> Module {
    kk.f.local_get(kk.acc);
    let mut mb = ModuleBuilder::new();
    mb.memory(PAGES);
    mb.add_func("run", kk.f);
    mb.build().unwrap_or_else(|e| panic!("kernel {name} failed to validate: {e}"))
}

/// Adds `n` to the diagonal of the matrix at `base` (diagonal dominance
/// for the factorization kernels).
fn dominate_diag(kk: &mut K, base: i32) {
    let (i, n) = (kk.i, kk.n);
    let f = &mut kk.f;
    f.for_range(i, n, |f| {
        a2(f, base, i, i, n);
        ld2(f, base, i, i, n);
        f.local_get(n).f64_convert_i32_s().f64_add();
        f.f64_store(0);
    });
}

// ---- linear algebra: BLAS-like ----

/// `gemm`: C = 1.5·A·B + 1.2·C.
pub fn gemm() -> Module {
    let mut kk = kern();
    let (a, b, c) = (mat(0), mat(1), mat(2));
    let K { ref mut f, n, i, j, k, acc, fa, .. } = kk;
    fill2(f, a, i, j, n, 7);
    fill2(f, b, i, j, n, 11);
    fill2(f, c, i, j, n, 13);
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            ld2(f, c, i, j, n);
            f.f64_const(1.2).f64_mul().local_set(fa);
            f.for_range(k, n, |f| {
                f.local_get(fa);
                ld2(f, a, i, k, n);
                ld2(f, b, k, j, n);
                f.f64_mul().f64_const(1.5).f64_mul().f64_add().local_set(fa);
            });
            st2(f, c, i, j, n, |f| {
                f.local_get(fa);
            });
        });
    });
    checksum2(f, c, i, j, n, acc);
    module("gemm", kk)
}

/// `2mm`: D = (A·B)·C.
pub fn two_mm() -> Module {
    let mut kk = kern();
    let (a, b, c, tmp, d) = (mat(0), mat(1), mat(2), mat(3), mat(4));
    let K { ref mut f, n, i, j, k, acc, fa, .. } = kk;
    fill2(f, a, i, j, n, 7);
    fill2(f, b, i, j, n, 11);
    fill2(f, c, i, j, n, 13);
    for (x, y, out) in [(a, b, tmp), (tmp, c, d)] {
        f.for_range(i, n, |f| {
            f.for_range(j, n, |f| {
                f.f64_const(0.0).local_set(fa);
                f.for_range(k, n, |f| {
                    f.local_get(fa);
                    ld2(f, x, i, k, n);
                    ld2(f, y, k, j, n);
                    f.f64_mul().f64_add().local_set(fa);
                });
                st2(f, out, i, j, n, |f| {
                    f.local_get(fa);
                });
            });
        });
    }
    checksum2(f, d, i, j, n, acc);
    module("2mm", kk)
}

/// `3mm`: G = (A·B)·(C·D).
pub fn three_mm() -> Module {
    let mut kk = kern();
    let (a, b, c, d, e, ff, g) = (mat(0), mat(1), mat(2), mat(3), mat(4), mat(5), mat(6));
    let K { ref mut f, n, i, j, k, acc, fa, .. } = kk;
    for (base, salt) in [(a, 7), (b, 11), (c, 13), (d, 17)] {
        fill2(f, base, i, j, n, salt);
    }
    for (x, y, out) in [(a, b, e), (c, d, ff), (e, ff, g)] {
        f.for_range(i, n, |f| {
            f.for_range(j, n, |f| {
                f.f64_const(0.0).local_set(fa);
                f.for_range(k, n, |f| {
                    f.local_get(fa);
                    ld2(f, x, i, k, n);
                    ld2(f, y, k, j, n);
                    f.f64_mul().f64_add().local_set(fa);
                });
                st2(f, out, i, j, n, |f| {
                    f.local_get(fa);
                });
            });
        });
    }
    checksum2(f, g, i, j, n, acc);
    module("3mm", kk)
}

/// `atax`: y = Aᵀ(A·x).
pub fn atax() -> Module {
    let mut kk = kern();
    let (a, x, y, tmp) = (mat(0), vc(0), vc(1), vc(2));
    let K { ref mut f, n, i, j, acc, fa, .. } = kk;
    fill2(f, a, i, j, n, 7);
    fill1(f, x, i, n, 11);
    f.for_range(i, n, |f| {
        st1(f, y, i, |f| {
            f.f64_const(0.0);
        });
    });
    f.for_range(i, n, |f| {
        f.f64_const(0.0).local_set(fa);
        f.for_range(j, n, |f| {
            f.local_get(fa);
            ld2(f, a, i, j, n);
            ld1(f, x, j);
            f.f64_mul().f64_add().local_set(fa);
        });
        st1(f, tmp, i, |f| {
            f.local_get(fa);
        });
        f.for_range(j, n, |f| {
            a1(f, y, j);
            ld1(f, y, j);
            ld2(f, a, i, j, n);
            f.local_get(fa).f64_mul().f64_add();
            f.f64_store(0);
        });
    });
    checksum1(f, y, i, n, acc);
    module("atax", kk)
}

/// `bicg`: q = A·p, s = Aᵀ·r.
pub fn bicg() -> Module {
    let mut kk = kern();
    let (a, p, r, q, s) = (mat(0), vc(0), vc(1), vc(2), vc(3));
    let K { ref mut f, n, i, j, acc, fa, .. } = kk;
    fill2(f, a, i, j, n, 7);
    fill1(f, p, i, n, 11);
    fill1(f, r, i, n, 13);
    f.for_range(i, n, |f| {
        st1(f, s, i, |f| {
            f.f64_const(0.0);
        });
    });
    f.for_range(i, n, |f| {
        f.f64_const(0.0).local_set(fa);
        f.for_range(j, n, |f| {
            // s[j] += r[i] * A[i][j]
            a1(f, s, j);
            ld1(f, s, j);
            ld1(f, r, i);
            ld2(f, a, i, j, n);
            f.f64_mul().f64_add();
            f.f64_store(0);
            // q accumulation
            f.local_get(fa);
            ld2(f, a, i, j, n);
            ld1(f, p, j);
            f.f64_mul().f64_add().local_set(fa);
        });
        st1(f, q, i, |f| {
            f.local_get(fa);
        });
    });
    checksum1(f, q, i, n, acc);
    checksum1(f, s, i, n, acc);
    module("bicg", kk)
}

/// `mvt`: x1 += A·y1, x2 += Aᵀ·y2.
pub fn mvt() -> Module {
    let mut kk = kern();
    let (a, x1, x2, y1, y2) = (mat(0), vc(0), vc(1), vc(2), vc(3));
    let K { ref mut f, n, i, j, acc, .. } = kk;
    fill2(f, a, i, j, n, 7);
    fill1(f, x1, i, n, 11);
    fill1(f, x2, i, n, 13);
    fill1(f, y1, i, n, 17);
    fill1(f, y2, i, n, 19);
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            a1(f, x1, i);
            ld1(f, x1, i);
            ld2(f, a, i, j, n);
            ld1(f, y1, j);
            f.f64_mul().f64_add();
            f.f64_store(0);
        });
    });
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            a1(f, x2, i);
            ld1(f, x2, i);
            ld2(f, a, j, i, n);
            ld1(f, y2, j);
            f.f64_mul().f64_add();
            f.f64_store(0);
        });
    });
    checksum1(f, x1, i, n, acc);
    checksum1(f, x2, i, n, acc);
    module("mvt", kk)
}

/// `gesummv`: y = 1.5·A·x + 1.2·B·x.
pub fn gesummv() -> Module {
    let mut kk = kern();
    let (a, b, x, y) = (mat(0), mat(1), vc(0), vc(1));
    let K { ref mut f, n, i, j, acc, fa, fb, .. } = kk;
    fill2(f, a, i, j, n, 7);
    fill2(f, b, i, j, n, 11);
    fill1(f, x, i, n, 13);
    f.for_range(i, n, |f| {
        f.f64_const(0.0).local_set(fa);
        f.f64_const(0.0).local_set(fb);
        f.for_range(j, n, |f| {
            f.local_get(fa);
            ld2(f, a, i, j, n);
            ld1(f, x, j);
            f.f64_mul().f64_add().local_set(fa);
            f.local_get(fb);
            ld2(f, b, i, j, n);
            ld1(f, x, j);
            f.f64_mul().f64_add().local_set(fb);
        });
        st1(f, y, i, |f| {
            f.local_get(fa)
                .f64_const(1.5)
                .f64_mul()
                .local_get(fb)
                .f64_const(1.2)
                .f64_mul()
                .f64_add();
        });
    });
    checksum1(f, y, i, n, acc);
    module("gesummv", kk)
}

/// `gemver`: rank-2 update, two matvecs, vector add.
pub fn gemver() -> Module {
    let mut kk = kern();
    let a = mat(0);
    let (u1, v1, u2, v2, x, y, z, w) = (vc(0), vc(1), vc(2), vc(3), vc(4), vc(5), vc(6), vc(7));
    let K { ref mut f, n, i, j, acc, .. } = kk;
    fill2(f, a, i, j, n, 7);
    for (base, salt) in [(u1, 11), (v1, 13), (u2, 17), (v2, 19), (y, 23), (z, 29)] {
        fill1(f, base, i, n, salt);
    }
    for base in [x, w] {
        f.for_range(i, n, |f| {
            st1(f, base, i, |f| {
                f.f64_const(0.0);
            });
        });
    }
    // A += u1 v1ᵀ + u2 v2ᵀ
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            a2(f, a, i, j, n);
            ld2(f, a, i, j, n);
            ld1(f, u1, i);
            ld1(f, v1, j);
            f.f64_mul().f64_add();
            ld1(f, u2, i);
            ld1(f, v2, j);
            f.f64_mul().f64_add();
            f.f64_store(0);
        });
    });
    // x = 1.2·Aᵀ·y + z
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            a1(f, x, i);
            ld1(f, x, i);
            ld2(f, a, j, i, n);
            ld1(f, y, j);
            f.f64_mul().f64_const(1.2).f64_mul().f64_add();
            f.f64_store(0);
        });
        a1(f, x, i);
        ld1(f, x, i);
        ld1(f, z, i);
        f.f64_add();
        f.f64_store(0);
    });
    // w = 1.5·A·x
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            a1(f, w, i);
            ld1(f, w, i);
            ld2(f, a, i, j, n);
            ld1(f, x, j);
            f.f64_mul().f64_const(1.5).f64_mul().f64_add();
            f.f64_store(0);
        });
    });
    checksum1(f, w, i, n, acc);
    module("gemver", kk)
}

/// `trmm`: triangular matrix multiply, B = 1.5·Aᵀ_lower·B.
pub fn trmm() -> Module {
    let mut kk = kern();
    let (a, b) = (mat(0), mat(1));
    let K { ref mut f, n, i, j, k, t, acc, fa, .. } = kk;
    fill2(f, a, i, j, n, 7);
    fill2(f, b, i, j, n, 11);
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            ld2(f, b, i, j, n);
            f.local_set(fa);
            f.local_get(i).i32_const(1).i32_add().local_set(t);
            f.for_range_from(k, t, n, |f| {
                f.local_get(fa);
                ld2(f, a, k, i, n);
                ld2(f, b, k, j, n);
                f.f64_mul().f64_add().local_set(fa);
            });
            st2(f, b, i, j, n, |f| {
                f.local_get(fa).f64_const(1.5).f64_mul();
            });
        });
    });
    checksum2(f, b, i, j, n, acc);
    module("trmm", kk)
}

/// `symm`: symmetric matrix multiply (PolyBench loop structure).
pub fn symm() -> Module {
    let mut kk = kern();
    let (a, b, c) = (mat(0), mat(1), mat(2));
    let K { ref mut f, n, i, j, k, acc, fa, fb, .. } = kk;
    fill2(f, a, i, j, n, 7);
    fill2(f, b, i, j, n, 11);
    fill2(f, c, i, j, n, 13);
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            f.f64_const(0.0).local_set(fb); // temp2
            f.for_range(k, i, |f| {
                // C[k][j] += 1.5 * B[i][j] * A[i][k]
                a2(f, c, k, j, n);
                ld2(f, c, k, j, n);
                ld2(f, b, i, j, n);
                ld2(f, a, i, k, n);
                f.f64_mul().f64_const(1.5).f64_mul().f64_add();
                f.f64_store(0);
                // temp2 += B[k][j] * A[i][k]
                f.local_get(fb);
                ld2(f, b, k, j, n);
                ld2(f, a, i, k, n);
                f.f64_mul().f64_add().local_set(fb);
            });
            ld2(f, c, i, j, n);
            f.f64_const(1.2).f64_mul();
            ld2(f, b, i, j, n);
            ld2(f, a, i, i, n);
            f.f64_mul().f64_const(1.5).f64_mul().f64_add();
            f.local_get(fb).f64_const(1.5).f64_mul().f64_add();
            f.local_set(fa);
            st2(f, c, i, j, n, |f| {
                f.local_get(fa);
            });
        });
    });
    checksum2(f, c, i, j, n, acc);
    module("symm", kk)
}

/// `syrk`: C = 1.5·A·Aᵀ + 1.2·C (lower triangle).
pub fn syrk() -> Module {
    let mut kk = kern();
    let (a, c) = (mat(0), mat(1));
    let K { ref mut f, n, i, j, k, t, acc, .. } = kk;
    fill2(f, a, i, j, n, 7);
    fill2(f, c, i, j, n, 11);
    f.for_range(i, n, |f| {
        f.local_get(i).i32_const(1).i32_add().local_set(t);
        f.for_range(j, t, |f| {
            a2(f, c, i, j, n);
            ld2(f, c, i, j, n);
            f.f64_const(1.2).f64_mul();
            f.f64_store(0);
        });
        f.for_range(k, n, |f| {
            f.for_range(j, t, |f| {
                a2(f, c, i, j, n);
                ld2(f, c, i, j, n);
                ld2(f, a, i, k, n);
                ld2(f, a, j, k, n);
                f.f64_mul().f64_const(1.5).f64_mul().f64_add();
                f.f64_store(0);
            });
        });
    });
    checksum2(f, c, i, j, n, acc);
    module("syrk", kk)
}

/// `syr2k`: C = 1.5·(A·Bᵀ + B·Aᵀ) + 1.2·C (lower triangle).
pub fn syr2k() -> Module {
    let mut kk = kern();
    let (a, b, c) = (mat(0), mat(1), mat(2));
    let K { ref mut f, n, i, j, k, t, acc, .. } = kk;
    fill2(f, a, i, j, n, 7);
    fill2(f, b, i, j, n, 11);
    fill2(f, c, i, j, n, 13);
    f.for_range(i, n, |f| {
        f.local_get(i).i32_const(1).i32_add().local_set(t);
        f.for_range(j, t, |f| {
            a2(f, c, i, j, n);
            ld2(f, c, i, j, n);
            f.f64_const(1.2).f64_mul();
            f.f64_store(0);
        });
        f.for_range(k, n, |f| {
            f.for_range(j, t, |f| {
                a2(f, c, i, j, n);
                ld2(f, c, i, j, n);
                ld2(f, a, j, k, n);
                ld2(f, b, i, k, n);
                f.f64_mul();
                ld2(f, b, j, k, n);
                ld2(f, a, i, k, n);
                f.f64_mul().f64_add();
                f.f64_const(1.5).f64_mul().f64_add();
                f.f64_store(0);
            });
        });
    });
    checksum2(f, c, i, j, n, acc);
    module("syr2k", kk)
}

// ---- solvers / factorizations ----

/// `trisolv`: forward substitution with a diagonally-dominant L.
pub fn trisolv() -> Module {
    let mut kk = kern();
    let (l, b, x) = (mat(0), vc(0), vc(1));
    {
        let K { ref mut f, n, i, j, .. } = kk;
        fill2(f, l, i, j, n, 7);
        fill1(f, b, i, n, 11);
    }
    dominate_diag(&mut kk, l);
    let K { ref mut f, n, i, j, acc, fa, .. } = kk;
    f.for_range(i, n, |f| {
        ld1(f, b, i);
        f.local_set(fa);
        f.for_range(j, i, |f| {
            f.local_get(fa);
            ld2(f, l, i, j, n);
            ld1(f, x, j);
            f.f64_mul().f64_sub().local_set(fa);
        });
        st1(f, x, i, |f| {
            f.local_get(fa);
            ld2(f, l, i, i, n);
            f.f64_div();
        });
    });
    checksum1(f, x, i, n, acc);
    module("trisolv", kk)
}

/// `durbin`: Levinson-Durbin recursion (r scaled for stability).
pub fn durbin() -> Module {
    let mut kk = kern();
    let (r, y, z) = (vc(0), vc(1), vc(2));
    let K { ref mut f, n, i, k, t, u, acc, fa, fb, .. } = kk;
    fill1(f, r, i, n, 7);
    // Scale r down so reflection coefficients stay bounded.
    f.for_range(i, n, |f| {
        a1(f, r, i);
        ld1(f, r, i);
        f.local_get(n).f64_convert_i32_s().f64_const(4.0).f64_mul().f64_div();
        f.f64_store(0);
    });
    // y[0] = -r[0]; beta (fb) = 1; alpha (fa) = -r[0].
    st1(f, y, 0, |f| {
        ld1(f, r, 0);
        f.f64_neg();
    });
    // Reuse local 0? locals: use t to hold literal 0 index for loads.
    f.i32_const(0).local_set(t);
    ld1(f, r, t);
    f.f64_neg().local_set(fa);
    f.f64_const(1.0).local_set(fb);
    f.i32_const(1).local_set(u);
    f.for_range_from(k, u, n, |f| {
        // beta = (1 - alpha^2) * beta
        f.f64_const(1.0)
            .local_get(fa)
            .local_get(fa)
            .f64_mul()
            .f64_sub()
            .local_get(fb)
            .f64_mul()
            .local_set(fb);
        // sum = Σ_{i<k} r[k-i-1] * y[i]   (accumulated into acc temporarily)
        f.f64_const(0.0).local_set(acc);
        f.for_range(i, k, |f| {
            f.local_get(k).local_get(i).i32_sub().i32_const(1).i32_sub().local_set(t);
            f.local_get(acc);
            ld1(f, r, t);
            ld1(f, y, i);
            f.f64_mul().f64_add().local_set(acc);
        });
        // alpha = -(r[k] + sum) / beta
        ld1(f, r, k);
        f.local_get(acc).f64_add().f64_neg().local_get(fb).f64_div().local_set(fa);
        // z[i] = y[i] + alpha * y[k-i-1]
        f.for_range(i, k, |f| {
            f.local_get(k).local_get(i).i32_sub().i32_const(1).i32_sub().local_set(t);
            st1(f, z, i, |f| {
                ld1(f, y, i);
                f.local_get(fa);
                ld1(f, y, t);
                f.f64_mul().f64_add();
            });
        });
        f.for_range(i, k, |f| {
            st1(f, y, i, |f| {
                ld1(f, z, i);
            });
        });
        st1(f, y, k, |f| {
            f.local_get(fa);
        });
    });
    f.f64_const(0.0).local_set(acc);
    checksum1(f, y, i, n, acc);
    module("durbin", kk)
}

/// `lu`: in-place LU decomposition of a diagonally-dominant matrix.
pub fn lu() -> Module {
    let mut kk = kern();
    let a = mat(0);
    {
        let K { ref mut f, n, i, j, .. } = kk;
        fill2(f, a, i, j, n, 7);
    }
    dominate_diag(&mut kk, a);
    let K { ref mut f, n, i, j, k, acc, fa, .. } = kk;
    f.for_range(i, n, |f| {
        f.for_range(j, i, |f| {
            ld2(f, a, i, j, n);
            f.local_set(fa);
            f.for_range(k, j, |f| {
                f.local_get(fa);
                ld2(f, a, i, k, n);
                ld2(f, a, k, j, n);
                f.f64_mul().f64_sub().local_set(fa);
            });
            st2(f, a, i, j, n, |f| {
                f.local_get(fa);
                ld2(f, a, j, j, n);
                f.f64_div();
            });
        });
        f.for_range_from(j, i, n, |f| {
            ld2(f, a, i, j, n);
            f.local_set(fa);
            f.for_range(k, i, |f| {
                f.local_get(fa);
                ld2(f, a, i, k, n);
                ld2(f, a, k, j, n);
                f.f64_mul().f64_sub().local_set(fa);
            });
            st2(f, a, i, j, n, |f| {
                f.local_get(fa);
            });
        });
    });
    checksum2(f, a, i, j, n, acc);
    module("lu", kk)
}

/// `ludcmp`: LU decomposition plus forward/backward substitution.
pub fn ludcmp() -> Module {
    let mut kk = kern();
    let (a, b, x, y) = (mat(0), vc(0), vc(1), vc(2));
    {
        let K { ref mut f, n, i, j, .. } = kk;
        fill2(f, a, i, j, n, 7);
        fill1(f, b, i, n, 11);
    }
    dominate_diag(&mut kk, a);
    let K { ref mut f, n, i, j, k, acc, fa, .. } = kk;
    // LU (same as `lu`).
    f.for_range(i, n, |f| {
        f.for_range(j, i, |f| {
            ld2(f, a, i, j, n);
            f.local_set(fa);
            f.for_range(k, j, |f| {
                f.local_get(fa);
                ld2(f, a, i, k, n);
                ld2(f, a, k, j, n);
                f.f64_mul().f64_sub().local_set(fa);
            });
            st2(f, a, i, j, n, |f| {
                f.local_get(fa);
                ld2(f, a, j, j, n);
                f.f64_div();
            });
        });
        f.for_range_from(j, i, n, |f| {
            ld2(f, a, i, j, n);
            f.local_set(fa);
            f.for_range(k, i, |f| {
                f.local_get(fa);
                ld2(f, a, i, k, n);
                ld2(f, a, k, j, n);
                f.f64_mul().f64_sub().local_set(fa);
            });
            st2(f, a, i, j, n, |f| {
                f.local_get(fa);
            });
        });
    });
    // Forward: y[i] = b[i] - Σ_{j<i} A[i][j]·y[j].
    f.for_range(i, n, |f| {
        ld1(f, b, i);
        f.local_set(fa);
        f.for_range(j, i, |f| {
            f.local_get(fa);
            ld2(f, a, i, j, n);
            ld1(f, y, j);
            f.f64_mul().f64_sub().local_set(fa);
        });
        st1(f, y, i, |f| {
            f.local_get(fa);
        });
    });
    // Backward: x[i] = (y[i] - Σ_{j>i} A[i][j]·x[j]) / A[i][i].
    for_down(f, i, n, |f| {
        ld1(f, y, i);
        f.local_set(fa);
        f.local_get(i).i32_const(1).i32_add().local_set(k);
        f.for_range_from(j, k, n, |f| {
            f.local_get(fa);
            ld2(f, a, i, j, n);
            ld1(f, x, j);
            f.f64_mul().f64_sub().local_set(fa);
        });
        st1(f, x, i, |f| {
            f.local_get(fa);
            ld2(f, a, i, i, n);
            f.f64_div();
        });
    });
    checksum1(f, x, i, n, acc);
    module("ludcmp", kk)
}

/// `cholesky`: Cholesky factorization of a diagonally-dominant matrix.
pub fn cholesky() -> Module {
    let mut kk = kern();
    let a = mat(0);
    {
        let K { ref mut f, n, i, j, .. } = kk;
        fill2(f, a, i, j, n, 7);
        // Symmetrize: A[i][j] = A[j][i] for j > i.
        f.for_range(i, n, |f| {
            f.for_range(j, i, |f| {
                st2(f, a, j, i, n, |f| {
                    ld2(f, a, i, j, n);
                });
            });
        });
    }
    dominate_diag(&mut kk, a);
    let K { ref mut f, n, i, j, k, acc, fa, .. } = kk;
    f.for_range(i, n, |f| {
        f.for_range(j, i, |f| {
            ld2(f, a, i, j, n);
            f.local_set(fa);
            f.for_range(k, j, |f| {
                f.local_get(fa);
                ld2(f, a, i, k, n);
                ld2(f, a, j, k, n);
                f.f64_mul().f64_sub().local_set(fa);
            });
            st2(f, a, i, j, n, |f| {
                f.local_get(fa);
                ld2(f, a, j, j, n);
                f.f64_div();
            });
        });
        ld2(f, a, i, i, n);
        f.local_set(fa);
        f.for_range(k, i, |f| {
            f.local_get(fa);
            ld2(f, a, i, k, n);
            ld2(f, a, i, k, n);
            f.f64_mul().f64_sub().local_set(fa);
        });
        st2(f, a, i, i, n, |f| {
            f.local_get(fa).f64_abs().f64_sqrt();
        });
    });
    checksum2(f, a, i, j, n, acc);
    module("cholesky", kk)
}

/// `gramschmidt`: modified Gram-Schmidt QR.
pub fn gramschmidt() -> Module {
    let mut kk = kern();
    let (a, q, r) = (mat(0), mat(1), mat(2));
    let K { ref mut f, n, i, j, k, t, acc, fa, .. } = kk;
    fill2(f, a, i, j, n, 7);
    f.for_range(k, n, |f| {
        // nrm = Σ_i A[i][k]^2 ; R[k][k] = sqrt(nrm)
        f.f64_const(0.0).local_set(fa);
        f.for_range(i, n, |f| {
            f.local_get(fa);
            ld2(f, a, i, k, n);
            ld2(f, a, i, k, n);
            f.f64_mul().f64_add().local_set(fa);
        });
        st2(f, r, k, k, n, |f| {
            f.local_get(fa).f64_sqrt();
        });
        f.for_range(i, n, |f| {
            st2(f, q, i, k, n, |f| {
                ld2(f, a, i, k, n);
                ld2(f, r, k, k, n);
                f.f64_div();
            });
        });
        f.local_get(k).i32_const(1).i32_add().local_set(t);
        f.for_range_from(j, t, n, |f| {
            f.f64_const(0.0).local_set(fa);
            f.for_range(i, n, |f| {
                f.local_get(fa);
                ld2(f, q, i, k, n);
                ld2(f, a, i, j, n);
                f.f64_mul().f64_add().local_set(fa);
            });
            st2(f, r, k, j, n, |f| {
                f.local_get(fa);
            });
            f.for_range(i, n, |f| {
                a2(f, a, i, j, n);
                ld2(f, a, i, j, n);
                ld2(f, q, i, k, n);
                ld2(f, r, k, j, n);
                f.f64_mul().f64_sub();
                f.f64_store(0);
            });
        });
    });
    checksum2(f, q, i, j, n, acc);
    checksum2(f, r, i, j, n, acc);
    module("gramschmidt", kk)
}

// ---- data mining ----

/// `correlation`: correlation matrix of an n×n dataset.
pub fn correlation() -> Module {
    let mut kk = kern();
    let (data, corr, mean, stddev) = (mat(0), mat(1), vc(0), vc(1));
    let K { ref mut f, n, i, j, k, t, acc, fa, .. } = kk;
    fill2(f, data, i, j, n, 7);
    // mean[j], stddev[j]
    f.for_range(j, n, |f| {
        f.f64_const(0.0).local_set(fa);
        f.for_range(i, n, |f| {
            f.local_get(fa);
            ld2(f, data, i, j, n);
            f.f64_add().local_set(fa);
        });
        st1(f, mean, j, |f| {
            f.local_get(fa).local_get(n).f64_convert_i32_s().f64_div();
        });
    });
    f.for_range(j, n, |f| {
        f.f64_const(0.0).local_set(fa);
        f.for_range(i, n, |f| {
            f.local_get(fa);
            ld2(f, data, i, j, n);
            ld1(f, mean, j);
            f.f64_sub();
            ld2(f, data, i, j, n);
            ld1(f, mean, j);
            f.f64_sub();
            f.f64_mul().f64_add().local_set(fa);
        });
        st1(f, stddev, j, |f| {
            f.local_get(fa)
                .local_get(n)
                .f64_convert_i32_s()
                .f64_div()
                .f64_sqrt()
                .f64_const(0.1)
                .f64_max();
        });
    });
    // Center and scale.
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            a2(f, data, i, j, n);
            ld2(f, data, i, j, n);
            ld1(f, mean, j);
            f.f64_sub();
            f.local_get(n).f64_convert_i32_s().f64_sqrt();
            ld1(f, stddev, j);
            f.f64_mul().f64_div();
            f.f64_store(0);
        });
    });
    // corr = dataᵀ·data (upper triangle mirrored).
    f.for_range(i, n, |f| {
        st2(f, corr, i, i, n, |f| {
            f.f64_const(1.0);
        });
        f.local_get(i).i32_const(1).i32_add().local_set(t);
        f.for_range_from(j, t, n, |f| {
            f.f64_const(0.0).local_set(fa);
            f.for_range(k, n, |f| {
                f.local_get(fa);
                ld2(f, data, k, i, n);
                ld2(f, data, k, j, n);
                f.f64_mul().f64_add().local_set(fa);
            });
            st2(f, corr, i, j, n, |f| {
                f.local_get(fa);
            });
            st2(f, corr, j, i, n, |f| {
                f.local_get(fa);
            });
        });
    });
    checksum2(f, corr, i, j, n, acc);
    module("correlation", kk)
}

/// `covariance`: covariance matrix of an n×n dataset.
pub fn covariance() -> Module {
    let mut kk = kern();
    let (data, cov, mean) = (mat(0), mat(1), vc(0));
    let K { ref mut f, n, i, j, k, acc, fa, .. } = kk;
    fill2(f, data, i, j, n, 7);
    f.for_range(j, n, |f| {
        f.f64_const(0.0).local_set(fa);
        f.for_range(i, n, |f| {
            f.local_get(fa);
            ld2(f, data, i, j, n);
            f.f64_add().local_set(fa);
        });
        st1(f, mean, j, |f| {
            f.local_get(fa).local_get(n).f64_convert_i32_s().f64_div();
        });
    });
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            a2(f, data, i, j, n);
            ld2(f, data, i, j, n);
            ld1(f, mean, j);
            f.f64_sub();
            f.f64_store(0);
        });
    });
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            f.f64_const(0.0).local_set(fa);
            f.for_range(k, n, |f| {
                f.local_get(fa);
                ld2(f, data, k, i, n);
                ld2(f, data, k, j, n);
                f.f64_mul().f64_add().local_set(fa);
            });
            st2(f, cov, i, j, n, |f| {
                f.local_get(fa)
                    .local_get(n)
                    .i32_const(1)
                    .i32_sub()
                    .f64_convert_i32_s()
                    .f64_const(1.0)
                    .f64_max()
                    .f64_div();
            });
        });
    });
    checksum2(f, cov, i, j, n, acc);
    module("covariance", kk)
}

// ---- stencils ----

/// `jacobi-1d`: 1-D 3-point stencil, n/2 time steps.
pub fn jacobi_1d() -> Module {
    let mut kk = kern();
    let (a, b) = (vc(0), vc(1));
    let K { ref mut f, n, i, t, k, u, acc, .. } = kk;
    fill1(f, a, i, n, 7);
    fill1(f, b, i, n, 11);
    f.local_get(n).i32_const(2).i32_div_s().local_set(k); // tsteps
    f.local_get(n).i32_const(1).i32_sub().local_set(u); // n-1
    f.for_range(t, k, |f| {
        for (src, dst) in [(a, b), (b, a)] {
            f.i32_const(1).local_set(i);
            f.block(BlockType::Empty);
            f.loop_(BlockType::Empty);
            f.local_get(i).local_get(u).i32_ge_s().br_if(1);
            {
                a1(f, dst, i);
                // A[i-1] + A[i] + A[i+1]
                f.local_get(i).i32_const(8).i32_mul().i32_const(src - 8).i32_add();
                f.f64_load(0);
                ld1(f, src, i);
                f.f64_add();
                f.local_get(i).i32_const(8).i32_mul().i32_const(src + 8).i32_add();
                f.f64_load(0);
                f.f64_add().f64_const(0.33333).f64_mul();
                f.f64_store(0);
            }
            f.local_get(i).i32_const(1).i32_add().local_set(i);
            f.br(0);
            f.end();
            f.end();
        }
    });
    checksum1(f, a, i, n, acc);
    module("jacobi-1d", kk)
}

/// `jacobi-2d`: 2-D 5-point stencil, n/8 time steps.
pub fn jacobi_2d() -> Module {
    let mut kk = kern();
    let (a, b) = (mat(0), mat(1));
    let K { ref mut f, n, i, j, t, k, u, acc, .. } = kk;
    fill2(f, a, i, j, n, 7);
    fill2(f, b, i, j, n, 11);
    f.local_get(n).i32_const(8).i32_div_s().i32_const(1).i32_add().local_set(k);
    f.local_get(n).i32_const(1).i32_sub().local_set(u);
    f.for_range(t, k, |f| {
        for (src, dst) in [(a, b), (b, a)] {
            f.i32_const(1).local_set(i);
            f.while_loop(
                |f| {
                    f.local_get(i).local_get(u).i32_lt_s();
                },
                |f| {
                    f.i32_const(1).local_set(j);
                    f.while_loop(
                        |f| {
                            f.local_get(j).local_get(u).i32_lt_s();
                        },
                        |f| {
                            a2(f, dst, i, j, n);
                            ld2(f, src, i, j, n);
                            // left/right: offset ±8 bytes
                            f.local_get(i)
                                .local_get(n)
                                .i32_mul()
                                .local_get(j)
                                .i32_add()
                                .i32_const(8)
                                .i32_mul()
                                .i32_const(src - 8)
                                .i32_add()
                                .f64_load(0);
                            f.f64_add();
                            f.local_get(i)
                                .local_get(n)
                                .i32_mul()
                                .local_get(j)
                                .i32_add()
                                .i32_const(8)
                                .i32_mul()
                                .i32_const(src + 8)
                                .i32_add()
                                .f64_load(0);
                            f.f64_add();
                            // up/down: ±n rows — recompute with i±1
                            f.local_get(i).i32_const(1).i32_sub().local_get(n).i32_mul();
                            f.local_get(j)
                                .i32_add()
                                .i32_const(8)
                                .i32_mul()
                                .i32_const(src)
                                .i32_add();
                            f.f64_load(0);
                            f.f64_add();
                            f.local_get(i).i32_const(1).i32_add().local_get(n).i32_mul();
                            f.local_get(j)
                                .i32_add()
                                .i32_const(8)
                                .i32_mul()
                                .i32_const(src)
                                .i32_add();
                            f.f64_load(0);
                            f.f64_add().f64_const(0.2).f64_mul();
                            f.f64_store(0);
                            f.local_get(j).i32_const(1).i32_add().local_set(j);
                        },
                    );
                    f.local_get(i).i32_const(1).i32_add().local_set(i);
                },
            );
        }
    });
    checksum2(f, a, i, j, n, acc);
    module("jacobi-2d", kk)
}

/// `seidel-2d`: in-place 9-point Gauss-Seidel sweep, n/8 time steps.
pub fn seidel_2d() -> Module {
    let mut kk = kern();
    let a = mat(0);
    let K { ref mut f, n, i, j, t, k, u, acc, .. } = kk;
    fill2(f, a, i, j, n, 7);
    f.local_get(n).i32_const(8).i32_div_s().i32_const(1).i32_add().local_set(k);
    f.local_get(n).i32_const(1).i32_sub().local_set(u);
    f.for_range(t, k, |f| {
        f.i32_const(1).local_set(i);
        f.while_loop(
            |f| {
                f.local_get(i).local_get(u).i32_lt_s();
            },
            |f| {
                f.i32_const(1).local_set(j);
                f.while_loop(
                    |f| {
                        f.local_get(j).local_get(u).i32_lt_s();
                    },
                    |f| {
                        a2(f, a, i, j, n);
                        // Nine neighbours via (i+di)*n + (j+dj).
                        let mut first = true;
                        for di in [-1i32, 0, 1] {
                            for dj in [-1i32, 0, 1] {
                                f.local_get(i).i32_const(di).i32_add();
                                f.local_get(n).i32_mul();
                                f.local_get(j).i32_const(dj).i32_add().i32_add();
                                f.i32_const(8).i32_mul().i32_const(a).i32_add();
                                f.f64_load(0);
                                if !first {
                                    f.f64_add();
                                }
                                first = false;
                            }
                        }
                        f.f64_const(9.0).f64_div();
                        f.f64_store(0);
                        f.local_get(j).i32_const(1).i32_add().local_set(j);
                    },
                );
                f.local_get(i).i32_const(1).i32_add().local_set(i);
            },
        );
    });
    checksum2(f, a, i, j, n, acc);
    module("seidel-2d", kk)
}

/// `fdtd-2d`: 2-D finite-difference time domain, n/8 time steps.
pub fn fdtd_2d() -> Module {
    let mut kk = kern();
    let (ex, ey, hz) = (mat(0), mat(1), mat(2));
    let K { ref mut f, n, i, j, t, k, u, acc, .. } = kk;
    fill2(f, ex, i, j, n, 7);
    fill2(f, ey, i, j, n, 11);
    fill2(f, hz, i, j, n, 13);
    f.local_get(n).i32_const(8).i32_div_s().i32_const(1).i32_add().local_set(k);
    f.local_get(n).i32_const(1).i32_sub().local_set(u);
    f.for_range(t, k, |f| {
        // ey[0][j] = t
        f.for_range(j, n, |f| {
            f.local_get(j).i32_const(8).i32_mul().i32_const(ey).i32_add();
            f.local_get(t).f64_convert_i32_s();
            f.f64_store(0);
        });
        // ey[i][j] -= 0.5*(hz[i][j] - hz[i-1][j]) for i>=1
        f.i32_const(1).local_set(i);
        f.while_loop(
            |f| {
                f.local_get(i).local_get(n).i32_lt_s();
            },
            |f| {
                f.for_range(j, n, |f| {
                    a2(f, ey, i, j, n);
                    ld2(f, ey, i, j, n);
                    ld2(f, hz, i, j, n);
                    f.local_get(i).i32_const(1).i32_sub().local_get(n).i32_mul();
                    f.local_get(j).i32_add().i32_const(8).i32_mul().i32_const(hz).i32_add();
                    f.f64_load(0);
                    f.f64_sub().f64_const(0.5).f64_mul().f64_sub();
                    f.f64_store(0);
                });
                f.local_get(i).i32_const(1).i32_add().local_set(i);
            },
        );
        // ex[i][j] -= 0.5*(hz[i][j] - hz[i][j-1]) for j>=1
        f.for_range(i, n, |f| {
            f.i32_const(1).local_set(j);
            f.while_loop(
                |f| {
                    f.local_get(j).local_get(n).i32_lt_s();
                },
                |f| {
                    a2(f, ex, i, j, n);
                    ld2(f, ex, i, j, n);
                    ld2(f, hz, i, j, n);
                    f.local_get(i).local_get(n).i32_mul().local_get(j).i32_add();
                    f.i32_const(8).i32_mul().i32_const(hz - 8).i32_add();
                    f.f64_load(0);
                    f.f64_sub().f64_const(0.5).f64_mul().f64_sub();
                    f.f64_store(0);
                    f.local_get(j).i32_const(1).i32_add().local_set(j);
                },
            );
        });
        // hz[i][j] -= 0.7*(ex[i][j+1]-ex[i][j]+ey[i+1][j]-ey[i][j])
        f.for_range(i, u, |f| {
            f.for_range(j, u, |f| {
                a2(f, hz, i, j, n);
                ld2(f, hz, i, j, n);
                f.local_get(i).local_get(n).i32_mul().local_get(j).i32_add();
                f.i32_const(8).i32_mul().i32_const(ex + 8).i32_add();
                f.f64_load(0);
                ld2(f, ex, i, j, n);
                f.f64_sub();
                f.local_get(i).i32_const(1).i32_add().local_get(n).i32_mul();
                f.local_get(j).i32_add().i32_const(8).i32_mul().i32_const(ey).i32_add();
                f.f64_load(0);
                f.f64_add();
                ld2(f, ey, i, j, n);
                f.f64_sub().f64_const(0.7).f64_mul().f64_sub();
                f.f64_store(0);
            });
        });
    });
    checksum2(f, hz, i, j, n, acc);
    module("fdtd-2d", kk)
}

/// `heat-3d`: 3-D 7-point stencil (n ≤ 32), 4 time steps.
pub fn heat_3d() -> Module {
    let mut kk = kern();
    let (a, b) = (mat(0), mat(2));
    let K { ref mut f, n, i, j, k, t, u, acc, fa, .. } = kk;
    // Fill the n^3 cube.
    f.local_get(n).local_get(n).i32_mul().local_get(n).i32_mul().local_set(t);
    fill1(f, a, i, t, 7);
    fill1(f, b, i, t, 11);
    f.local_get(n).i32_const(1).i32_sub().local_set(u);
    for step in 0..4 {
        let (src, dst) = if step % 2 == 0 { (a, b) } else { (b, a) };
        f.i32_const(1).local_set(i);
        f.while_loop(
            |f| {
                f.local_get(i).local_get(u).i32_lt_s();
            },
            |f| {
                f.i32_const(1).local_set(j);
                f.while_loop(
                    |f| {
                        f.local_get(j).local_get(u).i32_lt_s();
                    },
                    |f| {
                        f.i32_const(1).local_set(k);
                        f.while_loop(
                            |f| {
                                f.local_get(k).local_get(u).i32_lt_s();
                            },
                            |f| {
                                // center index in t
                                f.local_get(i)
                                    .local_get(n)
                                    .i32_mul()
                                    .local_get(j)
                                    .i32_add()
                                    .local_get(n)
                                    .i32_mul()
                                    .local_get(k)
                                    .i32_add()
                                    .local_set(t);
                                // fa = 0.125*(sum of 6 neighbours - 6*center) + center
                                ld1(f, src, t);
                                f.local_set(fa);
                                f.f64_const(0.0).local_set(acc);
                                // ±1 (k), ±n (j), ±n*n (i): byte offsets
                                f.local_get(acc);
                                for delta in [1i32, -1] {
                                    f.local_get(t).i32_const(8).i32_mul();
                                    f.i32_const(src + delta * 8).i32_add();
                                    f.f64_load(0);
                                    f.f64_add();
                                }
                                f.local_set(acc);
                                for (mul, _) in [(1, ()), (-1, ())] {
                                    f.local_get(acc);
                                    f.local_get(t)
                                        .local_get(n)
                                        .i32_const(mul)
                                        .i32_mul()
                                        .i32_add()
                                        .i32_const(8)
                                        .i32_mul()
                                        .i32_const(src)
                                        .i32_add()
                                        .f64_load(0);
                                    f.f64_add().local_set(acc);
                                    f.local_get(acc);
                                    f.local_get(t)
                                        .local_get(n)
                                        .local_get(n)
                                        .i32_mul()
                                        .i32_const(mul)
                                        .i32_mul()
                                        .i32_add()
                                        .i32_const(8)
                                        .i32_mul()
                                        .i32_const(src)
                                        .i32_add()
                                        .f64_load(0);
                                    f.f64_add().local_set(acc);
                                }
                                st1(f, dst, t, |f| {
                                    f.local_get(acc)
                                        .local_get(fa)
                                        .f64_const(6.0)
                                        .f64_mul()
                                        .f64_sub()
                                        .f64_const(0.125)
                                        .f64_mul()
                                        .local_get(fa)
                                        .f64_add();
                                });
                                f.local_get(k).i32_const(1).i32_add().local_set(k);
                            },
                        );
                        f.local_get(j).i32_const(1).i32_add().local_set(j);
                    },
                );
                f.local_get(i).i32_const(1).i32_add().local_set(i);
            },
        );
    }
    f.local_get(n).local_get(n).i32_mul().local_get(n).i32_mul().local_set(t);
    f.f64_const(0.0).local_set(acc);
    checksum1(f, a, i, t, acc);
    module("heat-3d", kk)
}

/// `adi`: alternating-direction implicit sweeps (PolyBench structure,
/// simplified coefficients), n/8 time steps.
pub fn adi() -> Module {
    let mut kk = kern();
    let (u_, v_, p_, q_) = (mat(0), mat(1), mat(2), mat(3));
    let K { ref mut f, n, i, j, t, k, u, acc, .. } = kk;
    fill2(f, u_, i, j, n, 7);
    f.local_get(n).i32_const(8).i32_div_s().i32_const(1).i32_add().local_set(k);
    f.local_get(n).i32_const(1).i32_sub().local_set(u);
    f.for_range(t, k, |f| {
        for (rd, wr) in [(u_, v_), (v_, u_)] {
            // Sweep: for each column i, a first-order recurrence in j.
            f.i32_const(1).local_set(i);
            f.while_loop(
                |f| {
                    f.local_get(i).local_get(u).i32_lt_s();
                },
                |f| {
                    st2(f, p_, i, 0, n, |f| {
                        f.f64_const(0.0);
                    });
                    st2(f, q_, i, 0, n, |f| {
                        f.f64_const(1.0);
                    });
                    f.i32_const(1).local_set(j);
                    f.while_loop(
                        |f| {
                            f.local_get(j).local_get(u).i32_lt_s();
                        },
                        |f| {
                            // p[i][j] = -0.5 / (0.5*p[i][j-1] + 2)
                            a2(f, p_, i, j, n);
                            f.f64_const(-0.5);
                            f.local_get(i).local_get(n).i32_mul().local_get(j).i32_add();
                            f.i32_const(8).i32_mul().i32_const(p_ - 8).i32_add();
                            f.f64_load(0);
                            f.f64_const(0.5).f64_mul().f64_const(2.0).f64_add();
                            f.f64_div();
                            f.f64_store(0);
                            // q[i][j] = (rd[j][i] + 0.5*q[i][j-1]) / (0.5*p[i][j-1]+2)
                            a2(f, q_, i, j, n);
                            ld2(f, rd, j, i, n);
                            f.local_get(i).local_get(n).i32_mul().local_get(j).i32_add();
                            f.i32_const(8).i32_mul().i32_const(q_ - 8).i32_add();
                            f.f64_load(0);
                            f.f64_const(0.5).f64_mul().f64_add();
                            f.local_get(i).local_get(n).i32_mul().local_get(j).i32_add();
                            f.i32_const(8).i32_mul().i32_const(p_ - 8).i32_add();
                            f.f64_load(0);
                            f.f64_const(0.5).f64_mul().f64_const(2.0).f64_add();
                            f.f64_div();
                            f.f64_store(0);
                            f.local_get(j).i32_const(1).i32_add().local_set(j);
                        },
                    );
                    // Back substitution: wr[n-1][i]=1; wr[j][i]=p[i][j]*wr[j+1][i]+q[i][j]
                    st2(f, wr, u, i, n, |f| {
                        f.f64_const(1.0);
                    });
                    for_down(f, j, u, |f| {
                        st2(f, wr, j, i, n, |f| {
                            ld2(f, p_, i, j, n);
                            f.local_get(j).i32_const(1).i32_add().local_get(n).i32_mul();
                            f.local_get(i).i32_add().i32_const(8).i32_mul().i32_const(wr).i32_add();
                            f.f64_load(0);
                            f.f64_mul();
                            ld2(f, q_, i, j, n);
                            f.f64_add();
                        });
                    });
                    f.local_get(i).i32_const(1).i32_add().local_set(i);
                },
            );
        }
    });
    checksum2(f, u_, i, j, n, acc);
    module("adi", kk)
}

// ---- dynamic programming / misc ----

/// `doitgen`: multiresolution analysis kernel (n ≤ 32).
pub fn doitgen() -> Module {
    let mut kk = kern();
    let (a, c4, sum) = (mat(0), mat(2), vc(0));
    let K { ref mut f, n, i, j, k, t, u, acc, fa, .. } = kk;
    // A is n×n×n at base a; C4 is n×n.
    f.local_get(n).local_get(n).i32_mul().local_get(n).i32_mul().local_set(t);
    fill1(f, a, i, t, 7);
    fill2(f, c4, i, j, n, 11);
    // for r (i), q (j): sum[p] = Σ_s A[r][q][s]·C4[s][p]; A[r][q][p] = sum[p].
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            f.for_range(k, n, |f| {
                f.f64_const(0.0).local_set(fa);
                f.for_range(u, n, |f| {
                    // t = ((i*n + j)*n + u)
                    f.local_get(i)
                        .local_get(n)
                        .i32_mul()
                        .local_get(j)
                        .i32_add()
                        .local_get(n)
                        .i32_mul()
                        .local_get(u)
                        .i32_add()
                        .local_set(t);
                    f.local_get(fa);
                    ld1(f, a, t);
                    ld2(f, c4, u, k, n);
                    f.f64_mul().f64_add().local_set(fa);
                });
                st1(f, sum, k, |f| {
                    f.local_get(fa);
                });
            });
            f.for_range(k, n, |f| {
                f.local_get(i)
                    .local_get(n)
                    .i32_mul()
                    .local_get(j)
                    .i32_add()
                    .local_get(n)
                    .i32_mul()
                    .local_get(k)
                    .i32_add()
                    .local_set(t);
                st1(f, a, t, |f| {
                    ld1(f, sum, k);
                });
            });
        });
    });
    f.local_get(n).local_get(n).i32_mul().local_get(n).i32_mul().local_set(t);
    checksum1(f, a, i, t, acc);
    module("doitgen", kk)
}

/// `nussinov`: RNA folding dynamic program (i32 DP table).
pub fn nussinov() -> Module {
    let mut kk = kern();
    let (tbl, seq) = (mat(0), vc(0)); // i32 table, i32 sequence
    let K { ref mut f, n, i, j, k, t, u, acc, .. } = kk;
    // seq[i] = i % 4 (i32 at 4-byte stride); table zeroed.
    f.for_range(i, n, |f| {
        f.local_get(i).i32_const(4).i32_mul().i32_const(seq).i32_add();
        f.local_get(i).i32_const(4).i32_rem_s();
        f.i32_store(0);
    });
    f.local_get(n).local_get(n).i32_mul().local_set(t);
    f.for_range(i, t, |f| {
        f.local_get(i).i32_const(4).i32_mul().i32_const(tbl).i32_add();
        f.i32_const(0);
        f.i32_store(0);
    });
    // i32 2-D addressing helper is emitted inline: (i*n+j)*4 + tbl.
    for_down(f, i, n, |f| {
        f.local_get(i).i32_const(1).i32_add().local_set(t);
        f.for_range_from(j, t, n, |f| {
            // u = max(T[i][j-1], T[i+1][j])
            f.local_get(i).local_get(n).i32_mul().local_get(j).i32_add();
            f.i32_const(4).i32_mul().i32_const(tbl - 4).i32_add();
            f.i32_load(0);
            f.local_get(i).i32_const(1).i32_add().local_get(n).i32_mul().local_get(j).i32_add();
            f.i32_const(4).i32_mul().i32_const(tbl).i32_add();
            f.i32_load(0);
            f.local_set(u);
            f.local_tee(k); // k = T[i][j-1] (temp reuse)
            f.local_get(u).local_get(k).local_get(u).i32_gt_s().select();
            f.local_set(u);
            // pairing: if i < j-1: u = max(u, T[i+1][j-1] + match)
            f.local_get(i).local_get(j).i32_const(1).i32_sub().i32_lt_s();
            f.if_(BlockType::Empty);
            f.local_get(i).i32_const(1).i32_add().local_get(n).i32_mul();
            f.local_get(j).i32_add();
            f.i32_const(4).i32_mul().i32_const(tbl - 4).i32_add();
            f.i32_load(0);
            // match = (seq[i] + seq[j] == 3)
            f.local_get(i).i32_const(4).i32_mul().i32_const(seq).i32_add().i32_load(0);
            f.local_get(j).i32_const(4).i32_mul().i32_const(seq).i32_add().i32_load(0);
            f.i32_add().i32_const(3).i32_eq();
            f.i32_add();
            f.local_set(k);
            f.local_get(k).local_get(u).local_get(k).local_get(u).i32_gt_s().select();
            f.local_set(u);
            f.end();
            // split: for k in i+1..j: u = max(u, T[i][k] + T[k+1][j])
            f.local_get(i).i32_const(1).i32_add().local_set(k);
            f.while_loop(
                |f| {
                    f.local_get(k).local_get(j).i32_lt_s();
                },
                |f| {
                    f.local_get(i).local_get(n).i32_mul().local_get(k).i32_add();
                    f.i32_const(4).i32_mul().i32_const(tbl).i32_add();
                    f.i32_load(0);
                    f.local_get(k).i32_const(1).i32_add().local_get(n).i32_mul();
                    f.local_get(j).i32_add();
                    f.i32_const(4).i32_mul().i32_const(tbl).i32_add();
                    f.i32_load(0);
                    f.i32_add();
                    f.local_set(t);
                    f.local_get(t).local_get(u).local_get(t).local_get(u).i32_gt_s().select();
                    f.local_set(u);
                    f.local_get(k).i32_const(1).i32_add().local_set(k);
                },
            );
            // T[i][j] = u
            f.local_get(i).local_get(n).i32_mul().local_get(j).i32_add();
            f.i32_const(4).i32_mul().i32_const(tbl).i32_add();
            f.local_get(u);
            f.i32_store(0);
        });
    });
    // checksum = T[0][n-1] as f64
    f.local_get(n).i32_const(1).i32_sub().i32_const(4).i32_mul().i32_const(tbl).i32_add();
    f.i32_load(0);
    f.f64_convert_i32_s().local_set(acc);
    module("nussinov", kk)
}

/// `floyd-warshall`: all-pairs shortest paths on an i32 matrix.
pub fn floyd_warshall() -> Module {
    let mut kk = kern();
    let p = mat(0); // i32 matrix
    let K { ref mut f, n, i, j, k, t, acc, .. } = kk;
    // path[i][j] = (i*j) % 13 + 3, diagonal 0.
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            f.local_get(i).local_get(n).i32_mul().local_get(j).i32_add();
            f.i32_const(4).i32_mul().i32_const(p).i32_add();
            f.i32_const(0);
            f.local_get(i).local_get(j).i32_mul().i32_const(13).i32_rem_s().i32_const(3).i32_add();
            f.local_get(i).local_get(j).i32_eq();
            f.select();
            f.i32_store(0);
        });
    });
    f.for_range(k, n, |f| {
        f.for_range(i, n, |f| {
            f.for_range(j, n, |f| {
                // t = path[i][k] + path[k][j]
                f.local_get(i).local_get(n).i32_mul().local_get(k).i32_add();
                f.i32_const(4).i32_mul().i32_const(p).i32_add().i32_load(0);
                f.local_get(k).local_get(n).i32_mul().local_get(j).i32_add();
                f.i32_const(4).i32_mul().i32_const(p).i32_add().i32_load(0);
                f.i32_add().local_set(t);
                // path[i][j] = min(path[i][j], t)
                f.local_get(i).local_get(n).i32_mul().local_get(j).i32_add();
                f.i32_const(4).i32_mul().i32_const(p).i32_add();
                f.local_get(i).local_get(n).i32_mul().local_get(j).i32_add();
                f.i32_const(4).i32_mul().i32_const(p).i32_add().i32_load(0);
                f.local_get(t);
                f.local_get(i).local_get(n).i32_mul().local_get(j).i32_add();
                f.i32_const(4).i32_mul().i32_const(p).i32_add().i32_load(0);
                f.local_get(t).i32_lt_s().select();
                f.i32_store(0);
            });
        });
    });
    // checksum = sum of the i32 matrix.
    f.f64_const(0.0).local_set(acc);
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            f.local_get(acc);
            f.local_get(i).local_get(n).i32_mul().local_get(j).i32_add();
            f.i32_const(4).i32_mul().i32_const(p).i32_add().i32_load(0);
            f.f64_convert_i32_s().f64_add().local_set(acc);
        });
    });
    module("floyd-warshall", kk)
}

/// The built suite, memoized: kernel construction is deterministic, so
/// fleets and benches that materialize the suite per job/process clone the
/// cached modules instead of re-running the builder DSL every time.
static ALL: std::sync::LazyLock<Vec<(&'static str, Module)>> = std::sync::LazyLock::new(build_all);

/// Returns every PolyBench kernel as `(name, module)` (cached; cloning a
/// built module is cheap relative to rebuilding it).
pub fn all() -> Vec<(&'static str, Module)> {
    ALL.clone()
}

fn build_all() -> Vec<(&'static str, Module)> {
    vec![
        ("jacobi-1d", jacobi_1d()),
        ("trisolv", trisolv()),
        ("gesummv", gesummv()),
        ("durbin", durbin()),
        ("bicg", bicg()),
        ("atax", atax()),
        ("mvt", mvt()),
        ("gemver", gemver()),
        ("trmm", trmm()),
        ("doitgen", doitgen()),
        ("syrk", syrk()),
        ("correlation", correlation()),
        ("covariance", covariance()),
        ("symm", symm()),
        ("gemm", gemm()),
        ("syr2k", syr2k()),
        ("gramschmidt", gramschmidt()),
        ("2mm", two_mm()),
        ("fdtd-2d", fdtd_2d()),
        ("nussinov", nussinov()),
        ("3mm", three_mm()),
        ("jacobi-2d", jacobi_2d()),
        ("adi", adi()),
        ("seidel-2d", seidel_2d()),
        ("heat-3d", heat_3d()),
        ("cholesky", cholesky()),
        ("ludcmp", ludcmp()),
        ("lu", lu()),
        ("floyd-warshall", floyd_warshall()),
    ]
}

/// Kernels that use 3-D arrays and need smaller problem sizes.
pub fn is_cubic(name: &str) -> bool {
    matches!(name, "heat-3d" | "doitgen")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_engine::store::Linker;
    use wizard_engine::{EngineConfig, Process, Value};

    #[test]
    fn all_kernels_validate_and_tiers_agree() {
        for (name, module) in all() {
            let n = if is_cubic(name) { 6 } else { 10 };
            let mut interp =
                Process::new(module.clone(), EngineConfig::interpreter_bytecode(), &Linker::new())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut reg = Process::new(module, EngineConfig::default(), &Linker::new()).unwrap();
            let r1 = interp
                .invoke_export("run", &[Value::I32(n)])
                .unwrap_or_else(|e| panic!("{name} (interp): {e}"));
            let r2 = reg
                .invoke_export("run", &[Value::I32(n)])
                .unwrap_or_else(|e| panic!("{name} (register): {e}"));
            // Bit-exact agreement between tiers.
            assert_eq!(
                r1[0].to_slot(),
                r2[0].to_slot(),
                "{name}: tier results diverge: {r1:?} vs {r2:?}"
            );
            let v = r1[0].as_f64().unwrap();
            assert!(v.is_finite(), "{name}: non-finite checksum {v}");
            assert!(v != 0.0 || name == "nussinov", "{name}: suspicious zero checksum");
        }
    }
}
