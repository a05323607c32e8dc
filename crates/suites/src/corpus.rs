//! A deterministic corpus of *production-shaped* modules for the binary
//! ingestion pipeline.
//!
//! Unlike the benchmark suites — pure compute kernels over locals and one
//! flat memory — every corpus module exercises the parts of the frontend
//! a real-world `.wasm` binary leans on: **imports** (host functions and
//! globals resolved through `wizard_engine::shims::Shims`), **multiple
//! globals**, **data and element segments**, **start functions**, and
//! `call_indirect` dispatch. Each exports `run(n: i32) -> i32` returning
//! a checksum, so correctness is established differentially across
//! dispatchers exactly like the suites.
//!
//! [`corpus`] returns each module both as a built [`Module`] and as its
//! **encoded binary bytes** — the conformance harness deliberately
//! starts from the bytes, driving
//! decode → validate → lower → artifact-build → execute end to end.
//!
//! The workload classes mirror common real deployments:
//!
//! | name        | class                    | frontend surface |
//! |-------------|--------------------------|------------------|
//! | `erc20`     | token-ledger contract    | call_indirect op dispatch, data-segment balances, imported `gas_limit` global, start sums supply |
//! | `keccak`    | keccak-f\[1600\] hashing | i64 lane arithmetic, round constants in a data segment, start absorbs the seed block |
//! | `regex_redux` | DNA pattern scanner    | br_table classifier, multi-global match counters, start checksums the text |
//! | `crc32`     | table-driven checksum    | start builds the 256-entry table in memory |
//! | `base64`    | codec round-trip         | alphabet + reverse table, start builds the decoder table |
//! | `hashtable` | open-addressing map      | call_indirect hash selection via element segment |
//! | `wasi_io`   | WASI console writer      | `fd_write`/`random_get`/`proc_exit` shims, iovec data segment, start writes a banner |

use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::encode::encode;
use wizard_wasm::module::{ConstExpr, Module};
use wizard_wasm::types::BlockType;
use wizard_wasm::types::ValType::{I32, I64};

use crate::Scale;

/// One corpus module, carried both decoded and as raw binary bytes.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Workload name (see the module table).
    pub name: &'static str,
    /// The built module (ground truth for round-trip checks).
    pub module: Module,
    /// The encoded `.wasm` binary — the ingestion input.
    pub bytes: Vec<u8>,
    /// The `run` argument at the chosen scale.
    pub n: i32,
    /// Whether the module imports host functions or globals (and so needs
    /// a shim-built linker rather than an empty one).
    pub uses_imports: bool,
}

/// The full corpus at `scale`.
pub fn corpus(scale: Scale) -> Vec<CorpusEntry> {
    let s = |test, small, medium| match scale {
        Scale::Test => test,
        Scale::Small => small,
        Scale::Medium => medium,
    };
    let mk = |name, module: Module, n, uses_imports| {
        let bytes = encode(&module);
        CorpusEntry { name, module, bytes, n, uses_imports }
    };
    vec![
        mk("erc20", erc20(), s(48, 600, 3000), true),
        mk("keccak", keccak(), s(2, 24, 96), true),
        mk("regex_redux", regex_redux(), s(1, 4, 12), true),
        mk("crc32", crc32(), s(1, 8, 32), true),
        mk("base64", base64(), s(1, 8, 32), false),
        mk("hashtable", hashtable(), s(1, 6, 20), false),
        mk("wasi_io", wasi_io(), s(2, 16, 64), true),
    ]
}

/// The shared pseudo-DNA text blob (deterministic LCG over `ACGT` with
/// newline fenceposts), used by the scanner-class workloads.
pub fn sample_text(len: usize) -> Vec<u8> {
    let mut s: u64 = 0x243f_6a88_85a3_08d3;
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r = (s >> 33) as u32;
        out.push(if i % 64 == 63 { b'\n' } else { b"ACGT"[(r % 4) as usize] });
    }
    out
}

/// Pushes `mem[addr]` (i64) for a constant address.
fn ld64(f: &mut FuncBuilder, addr: u32) {
    f.i32_const(0).i64_load(addr);
}

/// Stores an i64 produced by `value` at a constant address.
fn st64(f: &mut FuncBuilder, addr: u32, value: impl FnOnce(&mut FuncBuilder)) {
    f.i32_const(0);
    value(f);
    f.i64_store(addr);
}

/// Folds an i64 local into an i32 checksum: `wrap(acc) ^ wrap(acc >> 32)`.
fn fold64(f: &mut FuncBuilder, acc: u32) {
    f.local_get(acc).i32_wrap_i64();
    f.local_get(acc).i64_const(32).i64_shr_u().i32_wrap_i64();
    f.i32_xor();
}

// ---------------------------------------------------------------- erc20

/// A token-ledger contract: 8 accounts in a data segment, an allowance
/// matrix, `transfer`/`approve`/`transfer_from` ops dispatched through a
/// funcref table, total supply tracked in a global, gas limit imported.
fn erc20() -> Module {
    const BAL: u32 = 0x100; // 8 × i64 balances
    const ALW: u32 = 0x200; // 8×8 × i64 allowances

    let mut mb = ModuleBuilder::new();
    let log_i64 = mb.import_func("env", "log_i64", &[I64], &[]);
    let g_gas = mb.import_global("env", "gas_limit", I64, false);
    mb.memory(1);
    let g_supply = mb.global(I64, true, ConstExpr::I64(0));
    let g_ops = mb.global(I32, true, ConstExpr::I32(0));

    // Initial balances: account i holds 1000 + 37·i tokens.
    let balances: Vec<u8> = (0..8i64).flat_map(|i| (1000 + 37 * i).to_le_bytes()).collect();
    mb.data(BAL as i32, &balances);

    let op_sig = mb.sig(&[I32], &[]);

    // transfer(r): from = r&7 moves (r%5)+1 tokens to (7r+3)&7 if funded.
    let transfer = {
        let mut f = FuncBuilder::new(&[I32], &[]);
        let from = f.local(I32);
        let to = f.local(I32);
        let amt = f.local(I64);
        f.local_get(0).i32_const(7).i32_and().local_set(from);
        f.local_get(0).i32_const(7).i32_mul().i32_const(3).i32_add().i32_const(7).i32_and();
        f.local_set(to);
        f.local_get(0).i32_const(5).i32_rem_u().i32_const(1).i32_add().i64_extend_i32_u();
        f.local_set(amt);
        // if from != to && bal[from] >= amt
        f.local_get(from).local_get(to).i32_ne();
        f.local_get(from).i32_const(8).i32_mul().i64_load(BAL).local_get(amt).i64_ge_s();
        f.i32_and();
        f.if_(BlockType::Empty);
        {
            f.local_get(from).i32_const(8).i32_mul();
            f.local_get(from).i32_const(8).i32_mul().i64_load(BAL).local_get(amt).i64_sub();
            f.i64_store(BAL);
            f.local_get(to).i32_const(8).i32_mul();
            f.local_get(to).i32_const(8).i32_mul().i64_load(BAL).local_get(amt).i64_add();
            f.i64_store(BAL);
        }
        f.end();
        f.global_get(g_ops).i32_const(1).i32_add().global_set(g_ops);
        mb.add_private_func("transfer", f)
    };

    // approve(r): allowance[owner][spender] = r % 9.
    let approve = {
        let mut f = FuncBuilder::new(&[I32], &[]);
        let slot = f.local(I32);
        f.local_get(0).i32_const(7).i32_and().i32_const(8).i32_mul();
        f.local_get(0).i32_const(3).i32_shr_u().i32_const(7).i32_and();
        f.i32_add().i32_const(8).i32_mul().local_set(slot);
        f.local_get(slot);
        f.local_get(0).i32_const(9).i32_rem_u().i64_extend_i32_u();
        f.i64_store(ALW);
        f.global_get(g_ops).i32_const(1).i32_add().global_set(g_ops);
        mb.add_private_func("approve", f)
    };

    // transfer_from(r): spend one token of allowance if present and funded.
    let transfer_from = {
        let mut f = FuncBuilder::new(&[I32], &[]);
        let owner = f.local(I32);
        let to = f.local(I32);
        let slot = f.local(I32);
        f.local_get(0).i32_const(5).i32_mul().i32_const(7).i32_and().local_set(owner);
        f.local_get(0).i32_const(13).i32_mul().i32_const(7).i32_and().local_set(to);
        f.local_get(owner).i32_const(8).i32_mul();
        f.local_get(0).i32_const(11).i32_mul().i32_const(7).i32_and();
        f.i32_add().i32_const(8).i32_mul().local_set(slot);
        // if allowance > 0 && bal[owner] > 0: move one token, burn allowance
        f.local_get(slot).i64_load(ALW).i64_const(0).i64_gt_s();
        f.local_get(owner).i32_const(8).i32_mul().i64_load(BAL).i64_const(0).i64_gt_s();
        f.i32_and();
        f.if_(BlockType::Empty);
        {
            f.local_get(slot);
            f.local_get(slot).i64_load(ALW).i64_const(1).i64_sub();
            f.i64_store(ALW);
            f.local_get(owner).i32_const(8).i32_mul();
            f.local_get(owner).i32_const(8).i32_mul().i64_load(BAL).i64_const(1).i64_sub();
            f.i64_store(BAL);
            f.local_get(to).i32_const(8).i32_mul();
            f.local_get(to).i32_const(8).i32_mul().i64_load(BAL).i64_const(1).i64_add();
            f.i64_store(BAL);
        }
        f.end();
        f.global_get(g_ops).i32_const(1).i32_add().global_set(g_ops);
        mb.add_private_func("transfer_from", f)
    };

    mb.table(3);
    mb.elem(0, &[transfer, approve, transfer_from]);

    // start: total supply = Σ balances, reported through the log shim.
    let start = {
        let mut f = FuncBuilder::new(&[], &[]);
        let i = f.local(I32);
        f.for_const(i, 8, |f| {
            f.global_get(g_supply);
            f.local_get(i).i32_const(8).i32_mul().i64_load(BAL);
            f.i64_add().global_set(g_supply);
        });
        f.global_get(g_supply).call(log_i64);
        mb.add_private_func("init_supply", f)
    };
    mb.start(start);

    // run(n): n ledger ops round-robined through the dispatch table, then
    // a checksum over balances, allowances, supply, ops, and gas limit.
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let r = f.local(I32);
    let acc = f.local(I64);
    f.for_range(r, 0, |f| {
        f.local_get(r);
        f.local_get(r).i32_const(3).i32_rem_u();
        f.call_indirect(op_sig);
    });
    f.global_get(g_supply).local_set(acc);
    let i = f.local(I32);
    f.for_const(i, 8, |f| {
        f.local_get(acc).i64_const(13).i64_rotl();
        f.local_get(i).i32_const(8).i32_mul().i64_load(BAL);
        f.i64_xor().local_set(acc);
    });
    f.for_const(i, 64, |f| {
        f.local_get(acc).i64_const(31).i64_mul();
        f.local_get(i).i32_const(8).i32_mul().i64_load(ALW);
        f.i64_add().local_set(acc);
    });
    f.local_get(acc).global_get(g_gas).i64_xor().local_set(acc);
    fold64(&mut f, acc);
    f.global_get(g_ops).i32_add();
    mb.add_func("run", f);
    mb.build().expect("erc20 validates")
}

// --------------------------------------------------------------- keccak

/// keccak-f\[1600\]: the full 24-round permutation over 25 i64 lanes in
/// memory, round constants in a data segment, θ/ρπ/χ emitted from the
/// standard offset tables.
fn keccak() -> Module {
    const A: u32 = 0x000; // 25 × i64 state lanes
    const C: u32 = 0x0c8; // 5 × i64 theta scratch
    const B: u32 = 0x148; // 25 × i64 rho-pi scratch
    const RC: u32 = 0x300; // 24 × i64 round constants

    const ROUND_CONSTANTS: [u64; 24] = [
        0x0000000000000001,
        0x0000000000008082,
        0x800000000000808a,
        0x8000000080008000,
        0x000000000000808b,
        0x0000000080000001,
        0x8000000080008081,
        0x8000000000008009,
        0x000000000000008a,
        0x0000000000000088,
        0x0000000080008009,
        0x000000008000000a,
        0x000000008000808b,
        0x800000000000008b,
        0x8000000000008089,
        0x8000000000008003,
        0x8000000000008002,
        0x8000000000000080,
        0x000000000000800a,
        0x800000008000000a,
        0x8000000080008081,
        0x8000000000008080,
        0x0000000080000001,
        0x8000000080008008,
    ];
    /// Rotation offsets indexed by lane `x + 5y`.
    const RHO: [i64; 25] = [
        0, 1, 62, 28, 27, 36, 44, 6, 55, 20, 3, 10, 43, 25, 39, 41, 45, 15, 21, 8, 18, 2, 61, 56,
        14,
    ];

    let mut mb = ModuleBuilder::new();
    let log_i64 = mb.import_func("env", "log_i64", &[I64], &[]);
    mb.memory(1);
    let g_rounds = mb.global(I64, true, ConstExpr::I64(0));
    let g_blocks = mb.global(I32, true, ConstExpr::I32(0));

    let rc_bytes: Vec<u8> = ROUND_CONSTANTS.iter().flat_map(|c| c.to_le_bytes()).collect();
    mb.data(RC as i32, &rc_bytes);

    let lane = |i: usize| A + i as u32 * 8;

    // permute(): one keccak-f[1600] application to the state at A.
    let permute = {
        let mut f = FuncBuilder::new(&[], &[]);
        let r = f.local(I32);
        let d = f.local(I64);
        f.for_const(r, 24, |f| {
            // θ step 1: column parities.
            for x in 0..5usize {
                f.i32_const(0);
                ld64(f, lane(x));
                for y in 1..5 {
                    ld64(f, lane(x + 5 * y));
                    f.i64_xor();
                }
                f.i64_store(C + x as u32 * 8);
            }
            // θ step 2: D[x] = C[x-1] ^ rotl(C[x+1], 1), xor into the column.
            for x in 0..5usize {
                ld64(f, C + ((x + 4) % 5) as u32 * 8);
                ld64(f, C + ((x + 1) % 5) as u32 * 8);
                f.i64_const(1).i64_rotl().i64_xor().local_set(d);
                for y in 0..5 {
                    f.i32_const(0);
                    ld64(f, lane(x + 5 * y));
                    f.local_get(d).i64_xor();
                    f.i64_store(lane(x + 5 * y));
                }
            }
            // ρ + π: B[y + 5((2x+3y) mod 5)] = rotl(A[x+5y], RHO[x+5y]).
            for (i, &rot) in RHO.iter().enumerate() {
                let (x, y) = (i % 5, i / 5);
                let dst = y + 5 * ((2 * x + 3 * y) % 5);
                f.i32_const(0);
                ld64(f, lane(i));
                f.i64_const(rot).i64_rotl();
                f.i64_store(B + dst as u32 * 8);
            }
            // χ: A[x] = B[x] ^ (¬B[x+1] & B[x+2]) per row.
            for y in 0..5usize {
                for x in 0..5usize {
                    f.i32_const(0);
                    ld64(f, B + (x + 5 * y) as u32 * 8);
                    ld64(f, B + ((x + 1) % 5 + 5 * y) as u32 * 8);
                    f.i64_const(-1).i64_xor();
                    ld64(f, B + ((x + 2) % 5 + 5 * y) as u32 * 8);
                    f.i64_and().i64_xor();
                    f.i64_store(lane(x + 5 * y));
                }
            }
            // ι: A[0] ^= RC[r].
            f.i32_const(0);
            ld64(f, lane(0));
            f.local_get(r).i32_const(8).i32_mul().i64_load(RC);
            f.i64_xor();
            f.i64_store(lane(0));
            f.global_get(g_rounds).i64_const(1).i64_add().global_set(g_rounds);
        });
        mb.add_private_func("permute", f)
    };

    // start: seed the 25 lanes deterministically and absorb one block.
    let start = {
        let mut f = FuncBuilder::new(&[], &[]);
        let i = f.local(I32);
        f.for_const(i, 25, |f| {
            f.local_get(i).i32_const(8).i32_mul();
            f.local_get(i).i32_const(1).i32_add().i64_extend_i32_u();
            f.i64_const(0x9e37_79b9_7f4a_7c15u64 as i64).i64_mul();
            f.i64_store(A);
        });
        f.call(permute);
        mb.add_private_func("seed_state", f)
    };
    mb.start(start);

    // run(n): absorb n counter blocks, permuting after each; digest the
    // lanes and report through the log shim.
    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let b = f.local(I32);
    let acc = f.local(I64);
    f.for_range(b, 0, |f| {
        st64(f, lane(0), |f| {
            ld64(f, lane(0));
            f.local_get(b).i32_const(1).i32_add().i64_extend_i32_u().i64_xor();
        });
        f.call(permute);
        f.global_get(g_blocks).i32_const(1).i32_add().global_set(g_blocks);
    });
    f.i64_const(0).local_set(acc);
    for i in 0..25usize {
        f.local_get(acc).i64_const(7).i64_rotl();
        ld64(&mut f, lane(i));
        f.i64_xor().local_set(acc);
    }
    f.local_get(acc).call(log_i64);
    fold64(&mut f, acc);
    f.global_get(g_blocks).i32_add();
    mb.add_func("run", f);
    mb.build().expect("keccak validates")
}

// --------------------------------------------------------- regex_redux

/// A regex-redux-class scanner: a br_table nucleotide classifier plus
/// three pattern counters over a pseudo-DNA text, counts in globals.
fn regex_redux() -> Module {
    const CNT: u32 = 0x20; // 5 × i32 classifier buckets
    const TEXT: u32 = 0x1000;
    const LEN: i32 = 1024;

    let text = sample_text(LEN as usize);
    let patterns: [&[u8]; 3] = [b"GGTA", b"TTAAC", b"ACGTAC"];

    let mut mb = ModuleBuilder::new();
    let log_i32 = mb.import_func("env", "log_i32", &[I32], &[]);
    mb.memory(1);
    let g_len = mb.global(I32, false, ConstExpr::I32(LEN));
    let g_sum = mb.global(I32, true, ConstExpr::I32(0));
    let g_counts: Vec<u32> = (0..3).map(|_| mb.global(I32, true, ConstExpr::I32(0))).collect();
    mb.data(TEXT as i32, &text);

    // start: checksum the text into g_sum (detects segment-init bugs).
    let start = {
        let mut f = FuncBuilder::new(&[], &[]);
        let i = f.local(I32);
        f.for_const(i, LEN, |f| {
            f.global_get(g_sum).i32_const(31).i32_mul();
            f.local_get(i).i32_load8_u(TEXT);
            f.i32_add().global_set(g_sum);
        });
        mb.add_private_func("sum_text", f)
    };
    mb.start(start);

    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let rep = f.local(I32);
    let i = f.local(I32);
    let byte = f.local(I32);
    let cls = f.local(I32);
    let acc = f.local(I32);
    f.for_range(rep, 0, |f| {
        // Pass 1: classify every byte into A/C/G/T/other buckets through
        // a br_table (the realistic shape of DFA-driven scanners).
        f.for_const(i, LEN, |f| {
            f.local_get(i).i32_load8_u(TEXT).local_set(byte);
            f.i32_const(4).local_set(cls);
            for (k, ch) in [b'A', b'C', b'G', b'T'].into_iter().enumerate() {
                f.local_get(byte).i32_const(i32::from(ch)).i32_eq();
                f.if_(BlockType::Empty);
                f.i32_const(k as i32).local_set(cls);
                f.end();
            }
            f.block(BlockType::Empty); // exit label
            for _ in 0..5 {
                f.block(BlockType::Empty);
            }
            f.local_get(cls);
            f.br_table(&[0, 1, 2, 3], 4);
            for k in 0..5u32 {
                f.end();
                f.i32_const(0);
                f.i32_const(0).i32_load(CNT + 4 * k);
                f.i32_const(1).i32_add();
                f.i32_store(CNT + 4 * k);
                if k < 4 {
                    f.br(4 - k);
                }
            }
            f.end();
        });
        // Pass 2: count each pattern with an unrolled window compare.
        for (p, pat) in patterns.iter().enumerate() {
            f.for_const(i, LEN - pat.len() as i32, |f| {
                for (j, &ch) in pat.iter().enumerate() {
                    f.local_get(i).i32_load8_u(TEXT + j as u32);
                    f.i32_const(i32::from(ch)).i32_eq();
                    if j > 0 {
                        f.i32_and();
                    }
                }
                f.global_get(g_counts[p]).i32_add().global_set(g_counts[p]);
            });
        }
    });
    // Report the pattern counts, then fold everything.
    for &g in &g_counts {
        f.global_get(g).call(log_i32);
    }
    f.global_get(g_sum).local_set(acc);
    for &g in &g_counts {
        f.local_get(acc).i32_const(31).i32_mul().global_get(g).i32_add().local_set(acc);
    }
    for k in 0..5u32 {
        f.local_get(acc).i32_const(7).i32_rotl();
        f.i32_const(0).i32_load(CNT + 4 * k);
        f.i32_xor().local_set(acc);
    }
    f.local_get(acc).global_get(g_len).i32_add();
    mb.add_func("run", f);
    mb.build().expect("regex_redux validates")
}

// ---------------------------------------------------------------- crc32

/// Table-driven CRC-32: the start function builds the 256-entry table
/// from the polynomial global; `run` checksums the text `n` times.
fn crc32() -> Module {
    const TABLE: u32 = 0x000; // 256 × u32
    const TEXT: u32 = 0x1000;
    const LEN: i32 = 1024;

    let mut mb = ModuleBuilder::new();
    let log_i32 = mb.import_func("env", "log_i32", &[I32], &[]);
    mb.memory(1);
    let g_poly = mb.global(I32, false, ConstExpr::I32(0xedb8_8320u32 as i32));
    let g_crc = mb.global(I32, true, ConstExpr::I32(0));
    mb.data(TEXT as i32, &sample_text(LEN as usize));

    let start = {
        let mut f = FuncBuilder::new(&[], &[]);
        let i = f.local(I32);
        let k = f.local(I32);
        let c = f.local(I32);
        f.for_const(i, 256, |f| {
            f.local_get(i).local_set(c);
            f.for_const(k, 8, |f| {
                // c = (c & 1) ? poly ^ (c >>> 1) : (c >>> 1)
                f.global_get(g_poly);
                f.local_get(c).i32_const(1).i32_shr_u();
                f.i32_xor();
                f.local_get(c).i32_const(1).i32_shr_u();
                f.local_get(c).i32_const(1).i32_and();
                f.select();
                f.local_set(c);
            });
            f.local_get(i).i32_const(4).i32_mul();
            f.local_get(c);
            f.i32_store(TABLE);
        });
        mb.add_private_func("build_table", f)
    };
    mb.start(start);

    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let rep = f.local(I32);
    let i = f.local(I32);
    let crc = f.local(I32);
    f.for_range(rep, 0, |f| {
        f.i32_const(-1).local_set(crc);
        f.for_const(i, LEN, |f| {
            // crc = table[(crc ^ byte) & 0xff] ^ (crc >>> 8)
            f.local_get(crc);
            f.local_get(i).i32_load8_u(TEXT);
            f.i32_xor().i32_const(0xff).i32_and().i32_const(4).i32_mul();
            f.i32_load(TABLE);
            f.local_get(crc).i32_const(8).i32_shr_u();
            f.i32_xor().local_set(crc);
        });
        // Chain reps: fold this rep's crc into the running global.
        f.global_get(g_crc).i32_const(5).i32_rotl().local_get(crc).i32_xor();
        f.global_set(g_crc);
    });
    f.global_get(g_crc).call(log_i32);
    f.global_get(g_crc).local_get(0).i32_add();
    mb.add_func("run", f);
    mb.build().expect("crc32 validates")
}

// --------------------------------------------------------------- base64

/// base64 round-trip codec: encode the text, decode it back through a
/// start-built reverse table, count mismatches (must be zero).
fn base64() -> Module {
    const ALPHA: u32 = 0x040; // 64-byte alphabet (data segment)
    const REV: u32 = 0x140; // 128-byte reverse table (start-built)
    const TEXT: u32 = 0x1000;
    const OUT: u32 = 0x2000;
    const BACK: u32 = 0x3000;
    const LEN: i32 = 1022; // deliberately not a multiple of 3: exercises padding

    let mut mb = ModuleBuilder::new();
    mb.memory(1);
    let g_enc_len = mb.global(I32, true, ConstExpr::I32(0));
    let g_mismatch = mb.global(I32, true, ConstExpr::I32(0));
    mb.data(ALPHA as i32, b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/");
    mb.data(TEXT as i32, &sample_text(LEN as usize));

    // start: rev[alpha[i]] = i for the decoder.
    let start = {
        let mut f = FuncBuilder::new(&[], &[]);
        let i = f.local(I32);
        f.for_const(i, 64, |f| {
            f.local_get(i).i32_load8_u(ALPHA);
            f.local_get(i);
            f.i32_store8(REV);
        });
        mb.add_private_func("build_rev", f)
    };
    mb.start(start);

    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let rep = f.local(I32);
    let i = f.local(I32);
    let o = f.local(I32);
    let w = f.local(I32);
    let acc = f.local(I32);
    let limit = f.local(I32);
    f.for_range(rep, 0, |f| {
        // Encode whole 3-byte groups.
        f.i32_const(0).local_set(o);
        f.i32_const(0).local_set(i);
        f.while_loop(
            |f| {
                f.local_get(i).i32_const(LEN - 2).i32_lt_s();
            },
            |f| {
                // w = b0<<16 | b1<<8 | b2
                f.local_get(i).i32_load8_u(TEXT).i32_const(16).i32_shl();
                f.local_get(i).i32_load8_u(TEXT + 1).i32_const(8).i32_shl();
                f.i32_or();
                f.local_get(i).i32_load8_u(TEXT + 2).i32_or();
                f.local_set(w);
                for k in 0..4 {
                    f.local_get(o).i32_const(k).i32_add();
                    f.local_get(w).i32_const(18 - 6 * k).i32_shr_u().i32_const(63).i32_and();
                    f.i32_load8_u(ALPHA);
                    f.i32_store8(OUT);
                }
                f.local_get(i).i32_const(3).i32_add().local_set(i);
                f.local_get(o).i32_const(4).i32_add().local_set(o);
            },
        );
        // Tail: LEN % 3 == 0 means none; here LEN % 3 may leave 1 or 2.
        if LEN % 3 != 0 {
            let rem = LEN % 3;
            // w = remaining bytes left-aligned in 24 bits.
            f.local_get(i).i32_load8_u(TEXT).i32_const(16).i32_shl();
            if rem == 2 {
                f.local_get(i).i32_load8_u(TEXT + 1).i32_const(8).i32_shl();
                f.i32_or();
            }
            f.local_set(w);
            let chars = if rem == 1 { 2 } else { 3 };
            for k in 0..chars {
                f.local_get(o).i32_const(k).i32_add();
                f.local_get(w).i32_const(18 - 6 * k).i32_shr_u().i32_const(63).i32_and();
                f.i32_load8_u(ALPHA);
                f.i32_store8(OUT);
            }
            for k in chars..4 {
                f.local_get(o).i32_const(k).i32_add();
                f.i32_const(i32::from(b'='));
                f.i32_store8(OUT);
            }
            f.local_get(o).i32_const(4).i32_add().local_set(o);
        }
        f.local_get(o).global_set(g_enc_len);

        // Decode OUT back into BACK, stopping at padding.
        f.i32_const(0).local_set(i); // reader over OUT, 4 chars at a time
        f.i32_const(0).local_set(o); // writer into BACK
        f.global_get(g_enc_len).local_set(limit);
        f.while_loop(
            |f| {
                f.local_get(i).local_get(limit).i32_lt_s();
            },
            |f| {
                // w = rev[c0]<<18 | rev[c1]<<12 | rev[c2]<<6 | rev[c3]
                // ('=' maps to 0 in REV, harmless for the tail bytes).
                f.i32_const(0).local_set(w);
                for k in 0..4u32 {
                    f.local_get(w).i32_const(6).i32_shl();
                    f.local_get(i).i32_load8_u(OUT + k);
                    f.i32_const(127).i32_and();
                    f.i32_load8_u(REV);
                    f.i32_or().local_set(w);
                }
                for k in 0..3 {
                    f.local_get(o).i32_const(k).i32_add();
                    f.local_get(w).i32_const(16 - 8 * k).i32_shr_u().i32_const(255).i32_and();
                    f.i32_store8(BACK);
                }
                f.local_get(i).i32_const(4).i32_add().local_set(i);
                f.local_get(o).i32_const(3).i32_add().local_set(o);
            },
        );
        // Compare the round-trip.
        f.for_const(i, LEN, |f| {
            f.local_get(i).i32_load8_u(TEXT);
            f.local_get(i).i32_load8_u(BACK);
            f.i32_ne();
            f.global_get(g_mismatch).i32_add().global_set(g_mismatch);
        });
    });
    // Checksum: fold the encoded bytes; mismatches weighted heavily so a
    // round-trip bug can't cancel out.
    f.i32_const(0).local_set(acc);
    f.global_get(g_enc_len).local_set(limit);
    f.for_range(i, limit, |f| {
        f.local_get(acc).i32_const(5).i32_rotl();
        f.local_get(i).i32_load8_u(OUT);
        f.i32_xor().local_set(acc);
    });
    f.local_get(acc);
    f.global_get(g_mismatch).i32_const(0x0101_0101).i32_mul().i32_add();
    f.global_get(g_enc_len).i32_add();
    mb.add_func("run", f);
    mb.build().expect("base64 validates")
}

// ------------------------------------------------------------ hashtable

/// Open-addressing hash map with call_indirect-selected hash functions.
fn hashtable() -> Module {
    const SLOTS: u32 = 0x0000; // 1024 slots × (i32 key, i32 val)
    const MASK: i32 = 1023;
    const INSERTS: i32 = 512;

    let mut mb = ModuleBuilder::new();
    mb.memory(1);
    let g_seed = mb.global(I32, true, ConstExpr::I32(0));
    let g_count = mb.global(I32, true, ConstExpr::I32(0));

    let hash_sig = mb.sig(&[I32], &[I32]);

    let h_mul = {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        f.local_get(0).i32_const(0x9e37_79b1u32 as i32).i32_mul().i32_const(17).i32_shr_u();
        mb.add_private_func("h_mul", f)
    };
    let h_xs = {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let x = f.local(I32);
        f.local_get(0).local_set(x);
        f.local_get(x).i32_const(13).i32_shl().local_get(x).i32_xor().local_set(x);
        f.local_get(x).i32_const(7).i32_shr_u().local_get(x).i32_xor().local_set(x);
        f.local_get(x).i32_const(17).i32_shl().local_get(x).i32_xor().local_set(x);
        f.local_get(x);
        mb.add_private_func("h_xs", f)
    };
    mb.table(2);
    mb.elem(0, &[h_mul, h_xs]);

    // The key-stream seed lives in a data segment just past the slot
    // array; start reads it into the seed global.
    const SEED_ADDR: u32 = 0x2000;
    mb.data(SEED_ADDR as i32, &0x1234_5677u32.to_le_bytes());
    let start = {
        let mut f = FuncBuilder::new(&[], &[]);
        f.i32_const(0).i32_load(SEED_ADDR).global_set(g_seed);
        mb.add_private_func("init_seed", f)
    };
    mb.start(start);

    // insert(key, val): linear probing from the selected hash.
    let insert = {
        let mut f = FuncBuilder::new(&[I32, I32], &[]);
        let idx = f.local(I32);
        f.local_get(0);
        f.local_get(0).i32_const(1).i32_and();
        f.call_indirect(hash_sig);
        f.i32_const(MASK).i32_and().local_set(idx);
        f.while_loop(
            |f| {
                // occupied by another key?
                f.local_get(idx).i32_const(8).i32_mul().i32_load(SLOTS);
                f.i32_const(0).i32_ne();
                f.local_get(idx).i32_const(8).i32_mul().i32_load(SLOTS);
                f.local_get(0).i32_ne();
                f.i32_and();
            },
            |f| {
                f.local_get(idx).i32_const(1).i32_add().i32_const(MASK).i32_and().local_set(idx);
            },
        );
        f.local_get(idx).i32_const(8).i32_mul().local_get(0).i32_store(SLOTS);
        f.local_get(idx).i32_const(8).i32_mul().local_get(1).i32_store(SLOTS + 4);
        f.global_get(g_count).i32_const(1).i32_add().global_set(g_count);
        mb.add_private_func("insert", f)
    };

    // lookup(key) -> val or -7777 on miss.
    let lookup = {
        let mut f = FuncBuilder::new(&[I32], &[I32]);
        let idx = f.local(I32);
        let steps = f.local(I32);
        let out = f.local(I32);
        f.local_get(0);
        f.local_get(0).i32_const(1).i32_and();
        f.call_indirect(hash_sig);
        f.i32_const(MASK).i32_and().local_set(idx);
        f.i32_const(-7777).local_set(out);
        f.i32_const(0).local_set(steps);
        f.block(BlockType::Empty);
        f.loop_(BlockType::Empty);
        {
            // empty slot: miss.
            f.local_get(idx).i32_const(8).i32_mul().i32_load(SLOTS);
            f.i32_eqz().br_if(1);
            // our key: hit.
            f.local_get(idx).i32_const(8).i32_mul().i32_load(SLOTS);
            f.local_get(0).i32_eq();
            f.if_(BlockType::Empty);
            f.local_get(idx).i32_const(8).i32_mul().i32_load(SLOTS + 4).local_set(out);
            f.br(2);
            f.end();
            f.local_get(idx).i32_const(1).i32_add().i32_const(MASK).i32_and().local_set(idx);
            f.local_get(steps).i32_const(1).i32_add().local_set(steps);
            // safety bound
            f.local_get(steps).i32_const(MASK + 1).i32_gt_s().br_if(1);
            f.br(0);
        }
        f.end();
        f.end();
        f.local_get(out).local_get(steps).i32_const(13).i32_mul().i32_add();
        mb.add_private_func("lookup", f)
    };

    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let rep = f.local(I32);
    let i = f.local(I32);
    let key = f.local(I32);
    let acc = f.local(I32);
    f.for_range(rep, 0, |f| {
        // Clear the table.
        f.for_const(i, MASK + 1, |f| {
            f.local_get(i).i32_const(8).i32_mul().i32_const(0).i32_store(SLOTS);
            f.local_get(i).i32_const(8).i32_mul().i32_const(0).i32_store(SLOTS + 4);
        });
        // Insert a deterministic key stream.
        f.global_get(g_seed).local_set(key);
        f.for_const(i, INSERTS, |f| {
            f.local_get(key).i32_const(1103515245).i32_mul().i32_const(12345).i32_add();
            f.i32_const(0x7fff_fffe).i32_and().i32_const(1).i32_or().local_set(key);
            f.local_get(key).local_get(i).call(insert);
        });
        // Look them all up again.
        f.global_get(g_seed).local_set(key);
        f.for_const(i, INSERTS, |f| {
            f.local_get(key).i32_const(1103515245).i32_mul().i32_const(12345).i32_add();
            f.i32_const(0x7fff_fffe).i32_and().i32_const(1).i32_or().local_set(key);
            f.local_get(acc).i32_const(3).i32_rotl();
            f.local_get(key).call(lookup);
            f.i32_xor().local_set(acc);
        });
    });
    f.local_get(acc).global_get(g_count).i32_add();
    mb.add_func("run", f);
    mb.build().expect("hashtable validates")
}

// --------------------------------------------------------------- wasi_io

/// A WASI-preview1 console writer: scatter-gather `fd_write` of a banner
/// plus a `random_get`-filled buffer, `proc_exit` on negative input.
fn wasi_io() -> Module {
    const NW: u32 = 0x08; // fd_write's nwritten out-pointer
    const IOV: u32 = 0x10; // two iovecs
    const MSG: u32 = 0x100;
    const RAND: u32 = 0x200;
    const RAND_LEN: i32 = 32;

    let msg = b"wizard corpus: conformance over real binaries\n";

    let mut mb = ModuleBuilder::new();
    let fd_write =
        mb.import_func("wasi_snapshot_preview1", "fd_write", &[I32, I32, I32, I32], &[I32]);
    let random_get = mb.import_func("wasi_snapshot_preview1", "random_get", &[I32, I32], &[I32]);
    let proc_exit = mb.import_func("wasi_snapshot_preview1", "proc_exit", &[I32], &[]);
    mb.memory(1);
    let g_written = mb.global(I32, true, ConstExpr::I32(0));
    let g_fd = mb.global(I32, false, ConstExpr::I32(1)); // stdout

    mb.data(MSG as i32, msg);
    // iovec[0] = (MSG, len), iovec[1] = (RAND, RAND_LEN)
    let iovs: Vec<u8> = [
        MSG.to_le_bytes(),
        (msg.len() as u32).to_le_bytes(),
        RAND.to_le_bytes(),
        (RAND_LEN as u32).to_le_bytes(),
    ]
    .concat();
    mb.data(IOV as i32, &iovs);

    // start: write the banner once (host calls during instantiation).
    let start = {
        let mut f = FuncBuilder::new(&[], &[]);
        f.global_get(g_fd).i32_const(IOV as i32).i32_const(1).i32_const(NW as i32).call(fd_write);
        f.drop_();
        mb.add_private_func("banner", f)
    };
    mb.start(start);

    let mut f = FuncBuilder::new(&[I32], &[I32]);
    let rep = f.local(I32);
    let i = f.local(I32);
    let acc = f.local(I32);
    // proc_exit on negative n (the trapping path, tested differentially).
    f.local_get(0).i32_const(0).i32_lt_s();
    f.if_(BlockType::Empty);
    f.local_get(0).call(proc_exit);
    f.end();
    f.for_range(rep, 0, |f| {
        f.i32_const(RAND as i32).i32_const(RAND_LEN).call(random_get).drop_();
        f.global_get(g_fd).i32_const(IOV as i32).i32_const(2).i32_const(NW as i32).call(fd_write);
        f.drop_();
        f.global_get(g_written);
        f.i32_const(0).i32_load(NW);
        f.i32_add().global_set(g_written);
    });
    // Fold the last random block and the written-byte count.
    f.for_const(i, RAND_LEN, |f| {
        f.local_get(acc).i32_const(5).i32_rotl();
        f.local_get(i).i32_load8_u(RAND);
        f.i32_xor().local_set(acc);
    });
    f.local_get(acc).global_get(g_written).i32_add();
    mb.add_func("run", f);
    mb.build().expect("wasi_io validates")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_engine::store::Linker;
    use wizard_engine::value::Value;
    use wizard_engine::{EngineConfig, Process, Shims};
    use wizard_wasm::decode::decode;

    #[test]
    fn corpus_has_the_documented_shape() {
        let c = corpus(Scale::Test);
        assert!(c.len() >= 6, "corpus must hold at least 6 realistic modules");
        for e in &c {
            assert!(!e.bytes.is_empty(), "{}: empty binary", e.name);
            assert!(e.module.start.is_some(), "{}: every corpus module has a start", e.name);
            assert!(!e.module.data.is_empty(), "{}: every corpus module has data segments", e.name);
            let n_globals = e.module.global_types().len();
            assert!(n_globals >= 2, "{}: expected multiple globals, got {n_globals}", e.name);
        }
        // Between them the modules cover tables+element segments and
        // host-function/global imports.
        assert!(c.iter().any(|e| !e.module.elems.is_empty()));
        assert!(c.iter().any(|e| e.uses_imports));
        assert!(c.iter().any(|e| !e.uses_imports));
    }

    #[test]
    fn corpus_binaries_decode_back_to_the_built_module() {
        for e in corpus(Scale::Test) {
            let m2 = decode(&e.bytes).unwrap_or_else(|err| panic!("{}: {err}", e.name));
            assert_eq!(encode(&m2), e.bytes, "{}: re-encode differs", e.name);
        }
    }

    #[test]
    fn corpus_modules_execute_identically_on_both_interpreters() {
        for e in corpus(Scale::Test) {
            let shims = Shims::standard();
            let run = |config: EngineConfig| {
                let shims = Shims::standard();
                let linker = shims
                    .linker_for(&e.module)
                    .unwrap_or_else(|err| panic!("{}: shim resolution failed: {err}", e.name));
                let module = decode(&e.bytes).expect("decodes");
                let mut p = Process::new(module, config, &linker)
                    .unwrap_or_else(|err| panic!("{}: instantiate failed: {err}", e.name));
                let out = p
                    .invoke_export("run", &[Value::I32(e.n)])
                    .unwrap_or_else(|err| panic!("{}: run trapped: {err}", e.name));
                (out, shims.digest(), shims.total_calls())
            };
            let lowered = run(EngineConfig::interpreter());
            let classic = run(EngineConfig::interpreter_bytecode());
            assert_eq!(lowered, classic, "{}: dispatcher-dependent behavior", e.name);
            drop(shims);
        }
    }

    #[test]
    fn base64_round_trip_has_zero_mismatches() {
        // g_mismatch is weighted by 0x01010101 in the checksum; a clean
        // round-trip therefore produces the same result as a run that
        // never compares. Execute and make sure the checksum is stable
        // across scales (reps don't accumulate mismatches).
        let m = base64();
        let run = |n: i32| {
            let mut p =
                Process::new(m.clone(), EngineConfig::interpreter(), &Linker::new()).unwrap();
            p.invoke_export("run", &[Value::I32(n)]).unwrap()
        };
        let one = run(1);
        let two = run(2);
        assert_eq!(one, two, "mismatch counter accumulated across reps");
    }

    #[test]
    fn wasi_io_proc_exit_traps_on_negative_input() {
        let e = &corpus(Scale::Test)[6];
        assert_eq!(e.name, "wasi_io");
        let shims = Shims::standard();
        let linker = shims.linker_for(&e.module).unwrap();
        let mut p = Process::new(e.module.clone(), EngineConfig::interpreter(), &linker).unwrap();
        let err = p.invoke_export("run", &[Value::I32(-1)]).unwrap_err();
        assert!(format!("{err}").contains("proc_exit"), "unexpected trap: {err}");
    }
}
