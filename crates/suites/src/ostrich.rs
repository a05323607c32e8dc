//! Ostrich-style numerical kernels (Herrera et al., DLS'18): the paper's
//! second suite. Each kernel exports `run(n: i32) -> f64`.
//!
//! Substitutions (documented in DESIGN.md): kernels needing `sin`/`cos`/
//! `exp` (fft twiddles, back-propagation sigmoid) use algebraic stand-ins
//! with the same loop and memory structure, since core Wasm has no
//! transcendental instructions and neither did the paper's C-compiled
//! kernels (they linked libm; we inline rational approximations).

// The fft kernel hard-codes a truncated 1/sqrt(2) twiddle (0.7071) on
// purpose: results are compared differentially across systems, and the
// truncated constant keeps historical checksums stable.
#![allow(clippy::approx_constant)]

use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::module::{LocalIdx, Module};
use wizard_wasm::types::BlockType;
use wizard_wasm::types::ValType::{F64, I32, I64};

use crate::dsl::{a1, checksum1, fill1, ld1, st1};

const BUF: i32 = 0x1_0000;
const BUF2: i32 = 0x8_0000;
const PAGES: u32 = 16;

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
    K { f, n: 0, i, j, k, t, u, acc, fa }
}

fn module(name: &str, mut kk: K) -> Module {
    kk.f.local_get(kk.acc);
    let mut mb = ModuleBuilder::new();
    mb.memory(PAGES);
    mb.add_func("run", kk.f);
    mb.build().unwrap_or_else(|e| panic!("kernel {name} failed to validate: {e}"))
}

/// `crc`: bitwise CRC-32 over `n` KiB of generated data.
pub fn crc() -> Module {
    let mut kk = kern();
    let K { ref mut f, n, i, k, t, acc, .. } = kk;
    // len = n * 1024 bytes at BUF, byte k = (k*31+7) & 0xff.
    f.local_get(n).i32_const(1024).i32_mul().local_set(t);
    f.for_range(i, t, |f| {
        f.local_get(i).i32_const(BUF).i32_add();
        f.local_get(i).i32_const(31).i32_mul().i32_const(7).i32_add();
        f.i32_store8(0);
    });
    // crc in k, init 0xffffffff.
    f.i32_const(-1).local_set(k);
    f.for_range(i, t, |f| {
        f.local_get(k);
        f.local_get(i).i32_const(BUF).i32_add().i32_load8_u(0);
        f.i32_xor().local_set(k);
        for _ in 0..8 {
            // k = (k >> 1) ^ (0xEDB88320 & -(k & 1))
            f.local_get(k).i32_const(1).i32_shr_u();
            f.i32_const(0xedb8_8320u32 as i32);
            f.i32_const(0).local_get(k).i32_const(1).i32_and().i32_sub();
            f.i32_and().i32_xor().local_set(k);
        }
    });
    f.local_get(k).i32_const(-1).i32_xor().f64_convert_i32_u().local_set(acc);
    module("crc", kk)
}

/// `fft`: radix-2 butterfly passes over 512 complex points, `n` rounds
/// (algebraic twiddles; same dataflow as an FFT stage sweep).
pub fn fft() -> Module {
    let mut kk = kern();
    let K { ref mut f, n, i, j, k, t, acc, fa, .. } = kk;
    let size: i32 = 512;
    // Interleaved re/im pairs at BUF (size*2 doubles).
    f.i32_const(size * 2).local_set(t);
    fill1(f, BUF, i, t, 7);
    f.for_range(k, n, |f| {
        // Stage sweep: half = 1, 2, 4, ..., size/2.
        f.i32_const(1).local_set(j);
        f.while_loop(
            |f| {
                f.local_get(j).i32_const(size).i32_lt_s();
            },
            |f| {
                f.i32_const(0).local_set(i);
                f.while_loop(
                    |f| {
                        f.local_get(i).i32_const(size).i32_lt_s();
                    },
                    |f| {
                        // Butterfly between point i and i+half (re only and
                        // im only with a fixed rational "twiddle" 0.7071).
                        for part in 0..2i32 {
                            // idx_a = (2i+part), idx_b = 2(i+half)+part
                            f.local_get(i).i32_const(2).i32_mul().i32_const(part).i32_add();
                            f.local_set(t);
                            a1(f, BUF, t);
                            a1(f, BUF, t);
                            f.f64_load(0).local_set(fa);
                            // b
                            f.local_get(i)
                                .local_get(j)
                                .i32_add()
                                .i32_const(2)
                                .i32_mul()
                                .i32_const(part)
                                .i32_add()
                                .local_set(t);
                            f.local_get(fa);
                            ld1(f, BUF, t);
                            f.f64_const(0.7071).f64_mul().f64_add();
                            f.f64_store(0);
                            // b' = a - w*b
                            a1(f, BUF, t);
                            f.local_get(fa);
                            ld1(f, BUF, t);
                            f.f64_const(0.7071).f64_mul().f64_sub();
                            f.f64_store(0);
                        }
                        // Advance i: within each 2*half block only the first
                        // half positions host butterflies, so when (i+1) is a
                        // multiple of half, skip the second half.
                        f.local_get(i).i32_const(1).i32_add().local_get(j).i32_add(); // i+1+half
                        f.local_get(i).i32_const(1).i32_add(); // i+1
                        f.local_get(i).i32_const(1).i32_add().local_get(j).i32_rem_s().i32_eqz();
                        f.select().local_set(i);
                    },
                );
                f.local_get(j).i32_const(2).i32_mul().local_set(j);
            },
        );
    });
    f.i32_const(size * 2).local_set(t);
    checksum1(f, BUF, i, t, acc);
    module("fft", kk)
}

/// `nqueens`: count solutions for a `min(n, 10)`-queens board with
/// bitmask backtracking — a recursion/call-heavy integer kernel.
pub fn nqueens() -> Module {
    let mut mb = ModuleBuilder::new();
    mb.memory(1);
    // solve(cols, ld, rd, all) -> count   (recursive)
    let solve = mb.declare_func("solve", &[I32, I32, I32, I32], &[I32]);
    let mut s = FuncBuilder::new(&[I32, I32, I32, I32], &[I32]);
    let (cols, ld, rd, all) = (0, 1, 2, 3);
    let poss = s.local(I32);
    let bit = s.local(I32);
    let count = s.local(I32);
    s.local_get(cols).local_get(all).i32_eq().if_(BlockType::Empty);
    s.i32_const(1).return_();
    s.end();
    // poss = ~(cols | ld | rd) & all
    s.local_get(cols)
        .local_get(ld)
        .i32_or()
        .local_get(rd)
        .i32_or()
        .i32_const(-1)
        .i32_xor()
        .local_get(all)
        .i32_and()
        .local_set(poss);
    s.while_loop(
        |s| {
            s.local_get(poss).i32_const(0).i32_ne();
        },
        |s| {
            // bit = poss & -poss; poss -= bit
            s.local_get(poss).i32_const(0).local_get(poss).i32_sub().i32_and().local_set(bit);
            s.local_get(poss).local_get(bit).i32_sub().local_set(poss);
            s.local_get(count);
            s.local_get(cols).local_get(bit).i32_or();
            s.local_get(ld).local_get(bit).i32_or().i32_const(1).i32_shl();
            s.local_get(rd).local_get(bit).i32_or().i32_const(1).i32_shr_u();
            s.local_get(all);
            s.call(solve);
            s.i32_add().local_set(count);
        },
    );
    s.local_get(count);
    mb.define_func(solve, s);
    let mut f = FuncBuilder::new(&[I32], &[F64]);
    let size = f.local(I32);
    // size = clamp(n, 4, 10)
    f.local_get(0).i32_const(10).local_get(0).i32_const(10).i32_lt_s().select();
    f.local_set(size);
    f.i32_const(0).i32_const(0).i32_const(0);
    f.i32_const(1).local_get(size).i32_shl().i32_const(1).i32_sub();
    f.call(solve);
    f.f64_convert_i32_s();
    mb.add_func("run", f);
    mb.build().expect("nqueens validates")
}

/// `lud`: dense LU decomposition (Ostrich flavor, diagonally dominant).
pub fn lud() -> Module {
    let mut kk = kern();
    let K { ref mut f, n, i, j, k, t, acc, fa, .. } = kk;
    let a = BUF;
    // Fill n×n and dominate the diagonal.
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            f.local_get(i).local_get(n).i32_mul().local_get(j).i32_add();
            f.i32_const(8).i32_mul().i32_const(a).i32_add();
            f.local_get(i)
                .i32_const(7)
                .i32_mul()
                .local_get(j)
                .i32_add()
                .i32_const(97)
                .i32_rem_s()
                .f64_convert_i32_s()
                .f64_const(97.0)
                .f64_div()
                .f64_const(0.1)
                .f64_add()
                .local_set(fa);
            // Diagonal dominance: A[i][i] += n.
            f.local_get(fa).local_get(n).f64_convert_i32_s().f64_add();
            f.local_get(fa);
            f.local_get(i).local_get(j).i32_eq();
            f.select();
            f.f64_store(0);
        });
    });
    let ld2 = |f: &mut FuncBuilder, r: LocalIdx, c: LocalIdx, n: LocalIdx| {
        f.local_get(r).local_get(n).i32_mul().local_get(c).i32_add();
        f.i32_const(8).i32_mul().i32_const(a).i32_add().f64_load(0);
    };
    f.for_range(k, n, |f| {
        f.local_get(k).i32_const(1).i32_add().local_set(t);
        f.for_range_from(i, t, n, |f| {
            // A[i][k] /= A[k][k]
            f.local_get(i).local_get(n).i32_mul().local_get(k).i32_add();
            f.i32_const(8).i32_mul().i32_const(a).i32_add();
            ld2(f, i, k, n);
            ld2(f, k, k, n);
            f.f64_div();
            f.f64_store(0);
        });
        f.for_range_from(i, t, n, |f| {
            ld2(f, i, k, n);
            f.local_set(fa);
            f.for_range_from(j, t, n, |f| {
                f.local_get(i).local_get(n).i32_mul().local_get(j).i32_add();
                f.i32_const(8).i32_mul().i32_const(a).i32_add();
                ld2(f, i, j, n);
                f.local_get(fa);
                ld2(f, k, j, n);
                f.f64_mul().f64_sub();
                f.f64_store(0);
            });
        });
    });
    f.f64_const(0.0).local_set(acc);
    f.for_range(i, n, |f| {
        f.for_range(j, n, |f| {
            f.local_get(acc);
            ld2(f, i, j, n);
            f.f64_add().local_set(acc);
        });
    });
    module("lud", kk)
}

/// `nw`: Needleman-Wunsch sequence alignment (i32 DP).
pub fn nw() -> Module {
    let mut kk = kern();
    let K { ref mut f, n, i, j, t, k, u, acc, .. } = kk;
    let tbl = BUF; // (n+1)×(n+1) i32, stride n+1 in local t
    f.local_get(n).i32_const(1).i32_add().local_set(t);
    // Borders: T[i][0] = -2i, T[0][j] = -2j.
    f.for_range(i, t, |f| {
        f.local_get(i).local_get(t).i32_mul().i32_const(4).i32_mul().i32_const(tbl).i32_add();
        f.i32_const(-2).local_get(i).i32_mul();
        f.i32_store(0);
        f.local_get(i).i32_const(4).i32_mul().i32_const(tbl).i32_add();
        f.i32_const(-2).local_get(i).i32_mul();
        f.i32_store(0);
    });
    f.i32_const(1).local_set(i);
    f.while_loop(
        |f| {
            f.local_get(i).local_get(t).i32_lt_s();
        },
        |f| {
            f.i32_const(1).local_set(j);
            f.while_loop(
                |f| {
                    f.local_get(j).local_get(t).i32_lt_s();
                },
                |f| {
                    // match = (i*7+3)%4 == (j*5+1)%4 ? 1 : -1
                    // diag = T[i-1][j-1] + match
                    f.local_get(i).i32_const(1).i32_sub().local_get(t).i32_mul();
                    f.local_get(j).i32_const(1).i32_sub().i32_add();
                    f.i32_const(4).i32_mul().i32_const(tbl).i32_add().i32_load(0);
                    f.i32_const(1).i32_const(-1);
                    f.local_get(i)
                        .i32_const(7)
                        .i32_mul()
                        .i32_const(3)
                        .i32_add()
                        .i32_const(4)
                        .i32_rem_s();
                    f.local_get(j)
                        .i32_const(5)
                        .i32_mul()
                        .i32_const(1)
                        .i32_add()
                        .i32_const(4)
                        .i32_rem_s();
                    f.i32_eq().select().i32_add().local_set(k);
                    // up = T[i-1][j] - 2; left = T[i][j-1] - 2; max3
                    f.local_get(i)
                        .i32_const(1)
                        .i32_sub()
                        .local_get(t)
                        .i32_mul()
                        .local_get(j)
                        .i32_add();
                    f.i32_const(4).i32_mul().i32_const(tbl).i32_add().i32_load(0);
                    f.i32_const(2).i32_sub().local_set(u);
                    f.local_get(u);
                    f.local_get(k).local_get(u).local_get(k).i32_gt_s().select().local_set(k);
                    f.local_get(i).local_get(t).i32_mul().local_get(j).i32_add();
                    f.i32_const(4).i32_mul().i32_const(tbl - 4).i32_add().i32_load(0);
                    f.i32_const(2).i32_sub().local_set(u);
                    f.local_get(u);
                    f.local_get(k).local_get(u).local_get(k).i32_gt_s().select().local_set(k);
                    // store
                    f.local_get(i).local_get(t).i32_mul().local_get(j).i32_add();
                    f.i32_const(4).i32_mul().i32_const(tbl).i32_add();
                    f.local_get(k);
                    f.i32_store(0);
                    f.local_get(j).i32_const(1).i32_add().local_set(j);
                },
            );
            f.local_get(i).i32_const(1).i32_add().local_set(i);
        },
    );
    // checksum = T[n][n]
    f.local_get(n).local_get(t).i32_mul().local_get(n).i32_add();
    f.i32_const(4).i32_mul().i32_const(tbl).i32_add().i32_load(0);
    f.f64_convert_i32_s().local_set(acc);
    module("nw", kk)
}

/// `hmm`: forward algorithm over 16 hidden states, `n*16` observations.
pub fn hmm() -> Module {
    let mut kk = kern();
    let K { ref mut f, n, i, j, k, t, u, acc, fa } = kk;
    let (trans, alpha, alpha2) = (BUF, BUF2, BUF2 + 0x1000);
    let s = 16i32;
    // Transition matrix 16x16 and initial alpha vector.
    f.i32_const(s * s).local_set(t);
    fill1(f, trans, i, t, 7);
    f.i32_const(s).local_set(u);
    fill1(f, alpha, i, u, 11);
    f.local_get(n).i32_const(16).i32_mul().local_set(t);
    f.for_range(k, t, |f| {
        // alpha2[j] = (sum_i alpha[i]*trans[i][j]) * emit + tiny
        f.for_range(j, u, |f| {
            f.f64_const(0.0).local_set(fa);
            f.for_range(i, u, |f| {
                f.local_get(fa);
                ld1(f, alpha, i);
                f.local_get(i).i32_const(s).i32_mul().local_get(j).i32_add();
                f.i32_const(8).i32_mul().i32_const(trans).i32_add().f64_load(0);
                f.f64_mul().f64_add().local_set(fa);
            });
            st1(f, alpha2, j, |f| {
                f.local_get(fa).f64_const(0.0625).f64_mul().f64_const(1e-30).f64_add();
            });
        });
        // Normalize by the row sum and copy back.
        f.f64_const(0.0).local_set(fa);
        f.for_range(i, u, |f| {
            f.local_get(fa);
            ld1(f, alpha2, i);
            f.f64_add().local_set(fa);
        });
        f.for_range(i, u, |f| {
            st1(f, alpha, i, |f| {
                ld1(f, alpha2, i);
                f.local_get(fa).f64_div();
            });
        });
    });
    f.f64_const(0.0).local_set(acc);
    checksum1(f, alpha, i, u, acc);
    module("hmm", kk)
}

/// `lavamd`: particle force accumulation within a neighborhood (O(n²)
/// inner kernel with a distance cutoff).
pub fn lavamd() -> Module {
    let mut kk = kern();
    let K { ref mut f, n, i, j, t, acc, fa, .. } = kk;
    let (px, py, fx) = (BUF, BUF + 0x1_0000, BUF + 0x2_0000);
    f.local_get(n).i32_const(16).i32_mul().local_set(t);
    fill1(f, px, i, t, 7);
    fill1(f, py, i, t, 11);
    f.for_range(i, t, |f| {
        st1(f, fx, i, |f| {
            f.f64_const(0.0);
        });
    });
    f.for_range(i, t, |f| {
        f.for_range(j, t, |f| {
            // d = (px[i]-px[j])² + (py[i]-py[j])² + 0.01
            ld1(f, px, i);
            ld1(f, px, j);
            f.f64_sub();
            ld1(f, px, i);
            ld1(f, px, j);
            f.f64_sub();
            f.f64_mul();
            ld1(f, py, i);
            ld1(f, py, j);
            f.f64_sub();
            ld1(f, py, i);
            ld1(f, py, j);
            f.f64_sub();
            f.f64_mul();
            f.f64_add().f64_const(0.01).f64_add().local_set(fa);
            // if d < 0.5: fx[i] += 1/d
            f.local_get(fa).f64_const(0.5).f64_lt().if_(BlockType::Empty);
            a1(f, fx, i);
            ld1(f, fx, i);
            f.f64_const(1.0).local_get(fa).f64_div().f64_add();
            f.f64_store(0);
            f.end();
        });
    });
    checksum1(f, fx, i, t, acc);
    module("lavamd", kk)
}

/// `spmv`: sparse matrix-vector product in CSR form (7 nonzeros/row).
pub fn spmv() -> Module {
    let mut kk = kern();
    let K { ref mut f, n, i, j, t, acc, fa, .. } = kk;
    let (vals, x, y) = (BUF, BUF2, BUF2 + 0x1_0000);
    let nnz_per_row = 7i32;
    // rows = n*32; vals[k] filled; col(k) = (k*13) % rows computed on the fly.
    f.local_get(n).i32_const(32).i32_mul().local_set(t);
    f.local_get(t).i32_const(nnz_per_row).i32_mul().local_set(j);
    fill1(f, vals, i, j, 7);
    fill1(f, x, i, t, 11);
    f.for_range(i, t, |f| {
        f.f64_const(0.0).local_set(fa);
        f.for_const(j, nnz_per_row, |f| {
            // k = i*7 + j; col = (k*13) % rows
            f.local_get(fa);
            f.local_get(i).i32_const(nnz_per_row).i32_mul().local_get(j).i32_add();
            f.i32_const(8).i32_mul().i32_const(vals).i32_add().f64_load(0);
            f.local_get(i)
                .i32_const(nnz_per_row)
                .i32_mul()
                .local_get(j)
                .i32_add()
                .i32_const(13)
                .i32_mul()
                .local_get(t)
                .i32_rem_s();
            f.i32_const(8).i32_mul().i32_const(x).i32_add().f64_load(0);
            f.f64_mul().f64_add().local_set(fa);
        });
        st1(f, y, i, |f| {
            f.local_get(fa);
        });
    });
    checksum1(f, y, i, t, acc);
    module("spmv", kk)
}

/// `backprop`: one-hidden-layer forward/backward pass with a rational
/// activation (`x / (1 + |x|)` standing in for sigmoid).
pub fn backprop() -> Module {
    let mut kk = kern();
    let K { ref mut f, n, i, j, k, t, acc, fa, .. } = kk;
    let (w1, x, h, w2) = (BUF, BUF2, BUF2 + 0x1000, BUF2 + 0x2000);
    let hid = 64i32;
    // in = n*4 inputs, hid hidden units.
    f.local_get(n).i32_const(4).i32_mul().local_set(t);
    f.local_get(t).i32_const(hid).i32_mul().local_set(j);
    fill1(f, w1, i, j, 7);
    fill1(f, x, i, t, 11);
    f.i32_const(hid).local_set(j);
    fill1(f, w2, i, j, 13);
    // Forward: h[u] = act(Σ_i x[i]*w1[i*hid+u]).
    f.for_const(k, hid, |f| {
        f.f64_const(0.0).local_set(fa);
        f.for_range(i, t, |f| {
            f.local_get(fa);
            ld1(f, x, i);
            f.local_get(i).i32_const(hid).i32_mul().local_get(k).i32_add();
            f.i32_const(8).i32_mul().i32_const(w1).i32_add().f64_load(0);
            f.f64_mul().f64_add().local_set(fa);
        });
        st1(f, h, k, |f| {
            f.local_get(fa).local_get(fa).f64_abs().f64_const(1.0).f64_add().f64_div();
        });
    });
    // Output + backward: err = out - 0.5; w2[u] -= 0.1*err*h[u].
    f.f64_const(0.0).local_set(fa);
    f.for_const(k, hid, |f| {
        f.local_get(fa);
        ld1(f, h, k);
        ld1(f, w2, k);
        f.f64_mul().f64_add().local_set(fa);
    });
    f.local_get(fa).f64_const(0.5).f64_sub().local_set(fa);
    f.for_const(k, hid, |f| {
        a1(f, w2, k);
        ld1(f, w2, k);
        f.f64_const(0.1).local_get(fa).f64_mul();
        ld1(f, h, k);
        f.f64_mul().f64_sub();
        f.f64_store(0);
    });
    f.i32_const(hid).local_set(j);
    checksum1(f, w2, i, j, acc);
    module("back-propagation", kk)
}

/// `randombytes`: xorshift64* PRNG filling `n` KiB, checksummed.
pub fn randombytes() -> Module {
    let mut mb = ModuleBuilder::new();
    mb.memory(PAGES);
    let mut f = FuncBuilder::new(&[I32], &[F64]);
    let i = f.local(I32);
    let t = f.local(I32);
    let s = f.local(I64);
    let acc = f.local(I64);
    f.i64_const(0x9e37_79b9_7f4a_7c15u64 as i64).local_set(s);
    f.local_get(0).i32_const(128).i32_mul().local_set(t); // n*128 u64s
    f.for_range(i, t, |f| {
        // xorshift64*
        f.local_get(s).local_get(s).i64_const(12).i64_shr_u().i64_xor().local_set(s);
        f.local_get(s).local_get(s).i64_const(25).i64_shl().i64_xor().local_set(s);
        f.local_get(s).local_get(s).i64_const(27).i64_shr_u().i64_xor().local_set(s);
        f.local_get(i).i32_const(8).i32_mul().i32_const(BUF).i32_add();
        f.local_get(s).i64_const(0x2545_f491_4f6c_dd1du64 as i64).i64_mul();
        f.i64_store(0);
        f.local_get(acc);
        f.local_get(i).i32_const(8).i32_mul().i32_const(BUF).i32_add().i64_load(0);
        f.i64_add().local_set(acc);
    });
    f.local_get(acc).i64_const(0xffff_ffff).i64_and().f64_convert_i64_s();
    mb.add_func("run", f);
    mb.build().expect("randombytes validates")
}

/// The built suite, memoized — see `polybench::all` for the rationale.
static ALL: std::sync::LazyLock<Vec<(&'static str, Module)>> = std::sync::LazyLock::new(build_all);

/// Returns every Ostrich-style kernel as `(name, module)` (cached).
pub fn all() -> Vec<(&'static str, Module)> {
    ALL.clone()
}

fn build_all() -> Vec<(&'static str, Module)> {
    vec![
        ("lavamd", lavamd()),
        ("fft", fft()),
        ("crc", crc()),
        ("nw", nw()),
        ("randombytes", randombytes()),
        ("lud", lud()),
        ("nqueens", nqueens()),
        ("hmm", hmm()),
        ("back-propagation", backprop()),
        ("spmv", spmv()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_engine::store::Linker;
    use wizard_engine::{EngineConfig, Process, Value};

    #[test]
    fn all_kernels_validate_and_tiers_agree() {
        for (name, module) in all() {
            let mut interp =
                Process::new(module.clone(), EngineConfig::interpreter_bytecode(), &Linker::new())
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut reg = Process::new(module, EngineConfig::default(), &Linker::new()).unwrap();
            let r1 = interp
                .invoke_export("run", &[Value::I32(2)])
                .unwrap_or_else(|e| panic!("{name} (interp): {e}"));
            let r2 = reg
                .invoke_export("run", &[Value::I32(2)])
                .unwrap_or_else(|e| panic!("{name} (register): {e}"));
            assert_eq!(r1[0].to_slot(), r2[0].to_slot(), "{name}: tiers diverge");
            assert!(r1[0].as_f64().unwrap().is_finite(), "{name}: non-finite checksum");
        }
    }
}
