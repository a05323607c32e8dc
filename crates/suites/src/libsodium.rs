//! Libsodium-style crypto kernels: the paper's third suite. Each kernel
//! exports `run(n: i32) -> f64` where `n` scales the message size (KiB)
//! or operation count.
//!
//! `stream` (ChaCha20 core) and `shorthash` (SipHash-2-4) are faithful
//! implementations; the remaining kernels preserve each primitive's
//! operation mix (add-rotate-xor rounds, field multiplications, MAC
//! accumulation) with simplified constants — see DESIGN.md.

use wizard_wasm::builder::{FuncBuilder, ModuleBuilder};
use wizard_wasm::module::{LocalIdx, Module};
use wizard_wasm::types::ValType::{F64, I32, I64};

const BUF: i32 = 0x1_0000;
const PAGES: u32 = 16;

fn finish(name: &str, f: FuncBuilder) -> Module {
    let mut mb = ModuleBuilder::new();
    mb.memory(PAGES);
    mb.add_func("run", f);
    mb.build().unwrap_or_else(|e| panic!("kernel {name} failed to validate: {e}"))
}

/// `stream`: the real ChaCha20 block function, `n*16` blocks of keystream.
pub fn stream_chacha20() -> Module {
    let mut f = FuncBuilder::new(&[I32], &[F64]);
    let blk = f.local(I32);
    let nblocks = f.local(I32);
    let r = f.local(I32);
    let acc = f.local(I64);
    // Sixteen state words.
    let s: Vec<LocalIdx> = (0..16).map(|_| f.local(I32)).collect();
    // Initial state constants: "expa" etc. + fixed key/nonce words.
    let init: [i32; 16] = [
        0x6170_7865,
        0x3320_646e,
        0x7962_2d32,
        0x6b20_6574,
        0x0302_0100,
        0x0706_0504,
        0x0b0a_0908,
        0x0f0e_0d0c,
        0x1312_1110,
        0x1716_1514,
        0x1b1a_1918,
        0x1f1e_1d1c,
        0, // counter, set per block
        0x0000_004a,
        0x0000_0000,
        0x4a00_0000u32 as i32,
    ];
    f.local_get(0).i32_const(16).i32_mul().local_set(nblocks);
    f.for_range(blk, nblocks, |f| {
        for (w, sw) in s.iter().enumerate() {
            if w == 12 {
                f.local_get(blk).local_set(*sw);
            } else {
                f.i32_const(init[w]).local_set(*sw);
            }
        }
        // 10 double rounds.
        let qr = |f: &mut FuncBuilder, a: LocalIdx, b: LocalIdx, c: LocalIdx, d: LocalIdx| {
            f.local_get(a).local_get(b).i32_add().local_set(a);
            f.local_get(d).local_get(a).i32_xor().i32_const(16).i32_rotl().local_set(d);
            f.local_get(c).local_get(d).i32_add().local_set(c);
            f.local_get(b).local_get(c).i32_xor().i32_const(12).i32_rotl().local_set(b);
            f.local_get(a).local_get(b).i32_add().local_set(a);
            f.local_get(d).local_get(a).i32_xor().i32_const(8).i32_rotl().local_set(d);
            f.local_get(c).local_get(d).i32_add().local_set(c);
            f.local_get(b).local_get(c).i32_xor().i32_const(7).i32_rotl().local_set(b);
        };
        f.for_const(r, 10, |f| {
            qr(f, s[0], s[4], s[8], s[12]);
            qr(f, s[1], s[5], s[9], s[13]);
            qr(f, s[2], s[6], s[10], s[14]);
            qr(f, s[3], s[7], s[11], s[15]);
            qr(f, s[0], s[5], s[10], s[15]);
            qr(f, s[1], s[6], s[11], s[12]);
            qr(f, s[2], s[7], s[8], s[13]);
            qr(f, s[3], s[4], s[9], s[14]);
        });
        // Add the initial state and fold into the checksum accumulator.
        for (w, sw) in s.iter().enumerate() {
            f.local_get(acc);
            f.local_get(*sw);
            if w == 12 {
                f.local_get(blk).i32_add();
            } else {
                f.i32_const(init[w]).i32_add();
            }
            f.i64_extend_i32_u().i64_add().local_set(acc);
        }
    });
    f.local_get(acc).i64_const(0xfff_ffff).i64_and().f64_convert_i64_s();
    finish("stream", f)
}

/// `shorthash`: SipHash-2-4 over `n` KiB of generated 8-byte words.
pub fn shorthash_siphash() -> Module {
    let mut f = FuncBuilder::new(&[I32], &[F64]);
    let i = f.local(I32);
    let words = f.local(I32);
    let m = f.local(I64);
    let v0 = f.local(I64);
    let v1 = f.local(I64);
    let v2 = f.local(I64);
    let v3 = f.local(I64);
    f.i64_const(0x736f_6d65_7073_6575u64 as i64).local_set(v0);
    f.i64_const(0x646f_7261_6e64_6f6du64 as i64).local_set(v1);
    f.i64_const(0x6c79_6765_6e65_7261u64 as i64).local_set(v2);
    f.i64_const(0x7465_6462_7974_6573u64 as i64).local_set(v3);
    let round = |f: &mut FuncBuilder| {
        f.local_get(v0).local_get(v1).i64_add().local_set(v0);
        f.local_get(v1).i64_const(13).i64_rotl().local_get(v0).i64_xor().local_set(v1);
        f.local_get(v0).i64_const(32).i64_rotl().local_set(v0);
        f.local_get(v2).local_get(v3).i64_add().local_set(v2);
        f.local_get(v3).i64_const(16).i64_rotl().local_get(v2).i64_xor().local_set(v3);
        f.local_get(v0).local_get(v3).i64_add().local_set(v0);
        f.local_get(v3).i64_const(21).i64_rotl().local_get(v0).i64_xor().local_set(v3);
        f.local_get(v2).local_get(v1).i64_add().local_set(v2);
        f.local_get(v1).i64_const(17).i64_rotl().local_get(v2).i64_xor().local_set(v1);
        f.local_get(v2).i64_const(32).i64_rotl().local_set(v2);
    };
    f.local_get(0).i32_const(128).i32_mul().local_set(words);
    f.for_range(i, words, |f| {
        // m = word i of the message (generated arithmetically).
        f.local_get(i)
            .i64_extend_i32_u()
            .i64_const(0x9e37_79b9_7f4a_7c15u64 as i64)
            .i64_mul()
            .local_set(m);
        f.local_get(v3).local_get(m).i64_xor().local_set(v3);
        round(f);
        round(f);
        f.local_get(v0).local_get(m).i64_xor().local_set(v0);
    });
    f.local_get(v2).i64_const(0xff).i64_xor().local_set(v2);
    for _ in 0..4 {
        round(&mut f);
    }
    f.local_get(v0)
        .local_get(v1)
        .i64_xor()
        .local_get(v2)
        .i64_xor()
        .local_get(v3)
        .i64_xor()
        .i64_const(0xfff_ffff)
        .i64_and()
        .f64_convert_i64_s();
    finish("shorthash", f)
}

/// `hash`: FNV-1a 64 with avalanche finalization over `n` KiB.
pub fn hash() -> Module {
    let mut f = FuncBuilder::new(&[I32], &[F64]);
    let i = f.local(I32);
    let len = f.local(I32);
    let h = f.local(I64);
    f.i64_const(0xcbf2_9ce4_8422_2325u64 as i64).local_set(h);
    f.local_get(0).i32_const(1024).i32_mul().local_set(len);
    f.for_range(i, len, |f| {
        f.local_get(h);
        f.local_get(i).i32_const(251).i32_mul().i32_const(0xff).i32_and().i64_extend_i32_u();
        f.i64_xor().i64_const(0x0000_0100_0000_01b3).i64_mul().local_set(h);
    });
    // xorshift-multiply avalanche.
    for shift in [33, 29, 32] {
        f.local_get(h).local_get(h).i64_const(shift).i64_shr_u().i64_xor().local_set(h);
        f.local_get(h).i64_const(0xff51_afd7_ed55_8ccdu64 as i64).i64_mul().local_set(h);
    }
    f.local_get(h).i64_const(0xfff_ffff).i64_and().f64_convert_i64_s();
    finish("hash", f)
}

/// `auth`: HMAC-style two-pass keyed hash (inner and outer pads).
pub fn auth() -> Module {
    let mut f = FuncBuilder::new(&[I32], &[F64]);
    let i = f.local(I32);
    let len = f.local(I32);
    let h = f.local(I64);
    let pass = f.local(I32);
    let key: i64 = 0x0f1e_2d3c_4b5a_6978;
    f.local_get(0).i32_const(1024).i32_mul().local_set(len);
    f.i64_const(key ^ 0x3636_3636_3636_3636).local_set(h);
    f.for_const(pass, 2, |f| {
        f.for_range(i, len, |f| {
            f.local_get(h);
            f.local_get(i).i32_const(167).i32_mul().i32_const(0xff).i32_and().i64_extend_i32_u();
            f.i64_xor().i64_const(0x0000_0100_0000_01b3).i64_mul().local_set(h);
        });
        // Re-key with the opad for the outer pass.
        f.local_get(h).i64_const(key ^ 0x5c5c_5c5c_5c5c_5c5cu64 as i64).i64_xor().local_set(h);
    });
    f.local_get(h).i64_const(0xfff_ffff).i64_and().f64_convert_i64_s();
    finish("auth", f)
}

/// `onetimeauth`: Poly1305-style MAC accumulation,
/// `acc = (acc + m) * r mod 2^61-1`, over `n` KiB of 8-byte words.
pub fn onetimeauth() -> Module {
    let mut f = FuncBuilder::new(&[I32], &[F64]);
    let i = f.local(I32);
    let words = f.local(I32);
    let acc = f.local(I64);
    let p: i64 = (1 << 61) - 1;
    f.local_get(0).i32_const(128).i32_mul().local_set(words);
    f.for_range(i, words, |f| {
        // m = generated message word, kept below 2^32 so the modular
        // multiply cannot overflow 64 bits.
        f.local_get(acc);
        f.local_get(i).i64_extend_i32_u().i64_const(0x9e3_779b).i64_mul();
        f.i64_add().i64_const(p).i64_rem_u();
        f.i64_const(0x1234_5679).i64_mul().i64_const(p).i64_rem_u();
        f.local_set(acc);
    });
    f.local_get(acc).i64_const(0xfff_ffff).i64_and().f64_convert_i64_s();
    finish("onetimeauth", f)
}

/// `generichash`: BLAKE2-style mixing — 12 rounds of the G function over
/// an 8-word i64 state per `n*64` message blocks.
pub fn generichash() -> Module {
    let mut f = FuncBuilder::new(&[I32], &[F64]);
    let blk = f.local(I32);
    let nblocks = f.local(I32);
    let r = f.local(I32);
    let m = f.local(I64);
    let v: Vec<LocalIdx> = (0..8).map(|_| f.local(I64)).collect();
    for (w, vw) in v.iter().enumerate() {
        f.i64_const(0x6a09_e667_f3bc_c908u64 as i64 ^ (w as i64 * 0x1011)).local_set(*vw);
    }
    f.local_get(0).i32_const(64).i32_mul().local_set(nblocks);
    f.for_range(blk, nblocks, |f| {
        f.local_get(blk)
            .i64_extend_i32_u()
            .i64_const(0x9e37_79b9_7f4a_7c15u64 as i64)
            .i64_mul()
            .local_set(m);
        f.for_const(r, 12, |f| {
            for (a, b, c, d) in [(0, 2, 4, 6), (1, 3, 5, 7), (0, 3, 4, 7), (1, 2, 5, 6)] {
                // G: a += b + m; d = rotr(d ^ a, 32); c += d;
                //    b = rotr(b ^ c, 24); a += b; d = rotr(d ^ a, 16);
                //    c += d; b = rotr(b ^ c, 63)
                f.local_get(v[a]).local_get(v[b]).i64_add().local_get(m).i64_add().local_set(v[a]);
                f.local_get(v[d])
                    .local_get(v[a])
                    .i64_xor()
                    .i64_const(32)
                    .i64_rotr()
                    .local_set(v[d]);
                f.local_get(v[c]).local_get(v[d]).i64_add().local_set(v[c]);
                f.local_get(v[b])
                    .local_get(v[c])
                    .i64_xor()
                    .i64_const(24)
                    .i64_rotr()
                    .local_set(v[b]);
                f.local_get(v[a]).local_get(v[b]).i64_add().local_set(v[a]);
                f.local_get(v[d])
                    .local_get(v[a])
                    .i64_xor()
                    .i64_const(16)
                    .i64_rotr()
                    .local_set(v[d]);
                f.local_get(v[c]).local_get(v[d]).i64_add().local_set(v[c]);
                f.local_get(v[b])
                    .local_get(v[c])
                    .i64_xor()
                    .i64_const(63)
                    .i64_rotr()
                    .local_set(v[b]);
            }
        });
    });
    f.local_get(v[0]);
    for vw in &v[1..] {
        f.local_get(*vw).i64_xor();
    }
    f.i64_const(0xfff_ffff).i64_and().f64_convert_i64_s();
    finish("generichash", f)
}

/// `scalarmult`: Montgomery-ladder-style field exponentiation,
/// square-and-multiply mod 2^61-1 per scalar bit, repeated `n*4` times.
pub fn scalarmult() -> Module {
    let mut f = FuncBuilder::new(&[I32], &[F64]);
    let rep = f.local(I32);
    let reps = f.local(I32);
    let bit = f.local(I32);
    let x = f.local(I64);
    let acc = f.local(I64);
    let p: i64 = (1 << 61) - 1;
    f.local_get(0).i32_const(4).i32_mul().local_set(reps);
    f.i64_const(9).local_set(x);
    f.for_range(rep, reps, |f| {
        f.for_const(bit, 255, |f| {
            // Keep x < 2^31 so x*x fits in i64: reduce then mask.
            f.local_get(x).i64_const(p).i64_rem_u().i64_const(0x7fff_ffff).i64_and().local_set(x);
            // Square, conditionally multiply by the base point.
            f.local_get(x).local_get(x).i64_mul().i64_const(p).i64_rem_u().local_set(x);
            f.local_get(bit)
                .i32_const(3)
                .i32_and()
                .i32_eqz()
                .if_(wizard_wasm::types::BlockType::Empty);
            f.local_get(x).i64_const(9).i64_mul().i64_const(p).i64_rem_u().local_set(x);
            f.end();
        });
        f.local_get(acc).local_get(x).i64_add().local_set(acc);
    });
    f.local_get(acc).i64_const(0xfff_ffff).i64_and().f64_convert_i64_s();
    finish("scalarmult", f)
}

/// `secretbox`: stream-cipher keystream (ChaCha-style quarter rounds on 4
/// words) XOR message, then a running MAC — the secretbox composition.
pub fn secretbox() -> Module {
    let mut f = FuncBuilder::new(&[I32], &[F64]);
    let i = f.local(I32);
    let words = f.local(I32);
    let a = f.local(I32);
    let b = f.local(I32);
    let c = f.local(I32);
    let d = f.local(I32);
    let mac = f.local(I64);
    let p: i64 = (1 << 61) - 1;
    f.local_get(0).i32_const(256).i32_mul().local_set(words);
    f.i32_const(0x6170_7865).local_set(a);
    f.i32_const(0x3320_646e).local_set(b);
    f.i32_const(0x7962_2d32).local_set(c);
    f.i32_const(0x6b20_6574).local_set(d);
    f.for_range(i, words, |f| {
        // One quarter round per word of keystream.
        f.local_get(a).local_get(b).i32_add().local_set(a);
        f.local_get(d).local_get(a).i32_xor().i32_const(16).i32_rotl().local_set(d);
        f.local_get(c).local_get(d).i32_add().local_set(c);
        f.local_get(b).local_get(c).i32_xor().i32_const(12).i32_rotl().local_set(b);
        // ciphertext word = keystream ^ message word; store it.
        f.local_get(i).i32_const(4).i32_mul().i32_const(BUF).i32_add();
        f.local_get(a).local_get(i).i32_const(0x55aa_55aa).i32_mul().i32_xor();
        f.i32_store(0);
        // MAC accumulate.
        f.local_get(mac);
        f.local_get(i).i32_const(4).i32_mul().i32_const(BUF).i32_add().i32_load(0);
        f.i64_extend_i32_u().i64_add().i64_const(p).i64_rem_u();
        f.i64_const(0x1234_5679).i64_mul().i64_const(p).i64_rem_u().local_set(mac);
    });
    f.local_get(mac).i64_const(0xfff_ffff).i64_and().f64_convert_i64_s();
    finish("secretbox", f)
}

/// `kdf`: iterated subkey derivation — `n*256` chained hash compressions.
pub fn kdf() -> Module {
    let mut f = FuncBuilder::new(&[I32], &[F64]);
    let i = f.local(I32);
    let iters = f.local(I32);
    let h = f.local(I64);
    f.i64_const(0x243f_6a88_85a3_08d3u64 as i64).local_set(h);
    f.local_get(0).i32_const(256).i32_mul().local_set(iters);
    f.for_range(i, iters, |f| {
        // Subkey id mixed in, then two avalanche rounds.
        f.local_get(h).local_get(i).i64_extend_i32_u().i64_xor().local_set(h);
        for shift in [31, 27] {
            f.local_get(h).local_get(h).i64_const(shift).i64_shr_u().i64_xor().local_set(h);
            f.local_get(h).i64_const(0x9e37_79b9_7f4a_7c15u64 as i64).i64_mul().local_set(h);
        }
    });
    f.local_get(h).i64_const(0xfff_ffff).i64_and().f64_convert_i64_s();
    finish("kdf", f)
}

/// `box_easy`: public-key box ≈ scalarmult session key + secretbox; here
/// a short ladder followed by stream+MAC, per `n` messages.
pub fn box_easy() -> Module {
    let mut f = FuncBuilder::new(&[I32], &[F64]);
    let msg = f.local(I32);
    let i = f.local(I32);
    let x = f.local(I64);
    let mac = f.local(I64);
    let acc = f.local(I64);
    let p: i64 = (1 << 61) - 1;
    f.for_range(msg, 0, |f| {
        // Session key: 64 ladder steps.
        f.i64_const(9).local_set(x);
        f.for_const(i, 64, |f| {
            f.local_get(x).i64_const(0x7fff_ffff).i64_and().local_set(x);
            f.local_get(x).local_get(x).i64_mul().i64_const(p).i64_rem_u().local_set(x);
        });
        // Encrypt+MAC 128 words.
        f.i64_const(0).local_set(mac);
        f.for_const(i, 128, |f| {
            f.local_get(mac);
            f.local_get(x).local_get(i).i64_extend_i32_u().i64_add().i64_const(p).i64_rem_u();
            f.i64_add().i64_const(p).i64_rem_u().local_set(mac);
        });
        f.local_get(acc).local_get(mac).i64_add().local_set(acc);
    });
    f.local_get(acc).i64_const(0xfff_ffff).i64_and().f64_convert_i64_s();
    finish("box_easy", f)
}

/// The built suite, memoized — see `polybench::all` for the rationale.
static ALL: std::sync::LazyLock<Vec<(&'static str, Module)>> = std::sync::LazyLock::new(build_all);

/// Returns every libsodium-style kernel as `(name, module)` (cached).
pub fn all() -> Vec<(&'static str, Module)> {
    ALL.clone()
}

fn build_all() -> Vec<(&'static str, Module)> {
    vec![
        ("stream", stream_chacha20()),
        ("onetimeauth", onetimeauth()),
        ("hash", hash()),
        ("secretbox", secretbox()),
        ("auth", auth()),
        ("shorthash", shorthash_siphash()),
        ("generichash", generichash()),
        ("scalarmult", scalarmult()),
        ("kdf", kdf()),
        ("box_easy", box_easy()),
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
            let v = r1[0].as_f64().unwrap();
            assert!(v.is_finite() && v >= 0.0, "{name}: bad checksum {v}");
        }
    }

    #[test]
    fn chacha20_keystream_is_deterministic() {
        let m = stream_chacha20();
        let mut p1 = Process::new(m.clone(), EngineConfig::default(), &Linker::new()).unwrap();
        let a = p1.invoke_export("run", &[Value::I32(1)]).unwrap();
        let mut p2 = Process::new(m, EngineConfig::default(), &Linker::new()).unwrap();
        let b = p2.invoke_export("run", &[Value::I32(1)]).unwrap();
        assert_eq!(a, b);
    }
}
