//! Shared evaluation of numeric instructions, keyed by opcode byte.
//!
//! Every execution loop calls into this module, which guarantees that the
//! interpreters and the register form have identical numeric semantics
//! (and lets the differential property tests compare tiers meaningfully).

use wizard_wasm::opcodes::*;

use crate::store::Memory;
use crate::trap::Trap;
use crate::value::Slot;

/// `true` if `op` is a binary numeric instruction (pop 2, push 1).
pub fn is_binop(op: u8) -> bool {
    matches!(op,
        I32_EQ..=I32_GE_U
        | I64_EQ..=I64_GE_U
        | F32_EQ..=F32_GE
        | F64_EQ..=F64_GE
        | I32_ADD..=I32_ROTR
        | I64_ADD..=I64_ROTR
        | F32_ADD..=F32_COPYSIGN
        | F64_ADD..=F64_COPYSIGN)
}

/// `true` if `op` is a unary numeric instruction (pop 1, push 1).
pub fn is_unop(op: u8) -> bool {
    matches!(op,
        I32_EQZ
        | I64_EQZ
        | I32_CLZ | I32_CTZ | I32_POPCNT
        | I64_CLZ | I64_CTZ | I64_POPCNT
        | F32_ABS..=F32_SQRT
        | F64_ABS..=F64_SQRT
        | I32_WRAP_I64..=F64_REINTERPRET_I64
        | I32_EXTEND8_S..=I64_EXTEND32_S)
}

#[inline]
fn b32(v: bool) -> Slot {
    Slot::from_i32(i32::from(v))
}

/// Float minimum with WebAssembly NaN semantics.
#[inline]
fn fmin64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_negative() || b.is_sign_negative() {
            -0.0
        } else {
            0.0_f64.copysign(a)
        }
    } else if a < b {
        a
    } else {
        b
    }
}

#[inline]
fn fmax64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == b {
        if a.is_sign_positive() || b.is_sign_positive() {
            0.0
        } else {
            -0.0
        }
    } else if a > b {
        a
    } else {
        b
    }
}

#[inline]
fn fmin32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_negative() || b.is_sign_negative() {
            -0.0
        } else {
            0.0_f32.copysign(a)
        }
    } else if a < b {
        a
    } else {
        b
    }
}

#[inline]
fn fmax32(a: f32, b: f32) -> f32 {
    if a.is_nan() || b.is_nan() {
        f32::NAN
    } else if a == b {
        if a.is_sign_positive() || b.is_sign_positive() {
            0.0
        } else {
            -0.0
        }
    } else if a > b {
        a
    } else {
        b
    }
}

/// Evaluates a binary numeric instruction.
///
/// # Errors
///
/// Traps on division by zero and on `MIN / -1` overflow.
///
/// # Panics
///
/// Panics if `op` is not a binary instruction (validated code never does).
#[inline]
#[allow(clippy::too_many_lines)]
pub fn binop(op: u8, a: Slot, b: Slot) -> Result<Slot, Trap> {
    Ok(match op {
        // i32 comparisons.
        I32_EQ => b32(a.i32() == b.i32()),
        I32_NE => b32(a.i32() != b.i32()),
        I32_LT_S => b32(a.i32() < b.i32()),
        I32_LT_U => b32(a.u32() < b.u32()),
        I32_GT_S => b32(a.i32() > b.i32()),
        I32_GT_U => b32(a.u32() > b.u32()),
        I32_LE_S => b32(a.i32() <= b.i32()),
        I32_LE_U => b32(a.u32() <= b.u32()),
        I32_GE_S => b32(a.i32() >= b.i32()),
        I32_GE_U => b32(a.u32() >= b.u32()),
        // i64 comparisons.
        I64_EQ => b32(a.i64() == b.i64()),
        I64_NE => b32(a.i64() != b.i64()),
        I64_LT_S => b32(a.i64() < b.i64()),
        I64_LT_U => b32(a.u64() < b.u64()),
        I64_GT_S => b32(a.i64() > b.i64()),
        I64_GT_U => b32(a.u64() > b.u64()),
        I64_LE_S => b32(a.i64() <= b.i64()),
        I64_LE_U => b32(a.u64() <= b.u64()),
        I64_GE_S => b32(a.i64() >= b.i64()),
        I64_GE_U => b32(a.u64() >= b.u64()),
        // f32 comparisons.
        F32_EQ => b32(a.f32() == b.f32()),
        F32_NE => b32(a.f32() != b.f32()),
        F32_LT => b32(a.f32() < b.f32()),
        F32_GT => b32(a.f32() > b.f32()),
        F32_LE => b32(a.f32() <= b.f32()),
        F32_GE => b32(a.f32() >= b.f32()),
        // f64 comparisons.
        F64_EQ => b32(a.f64() == b.f64()),
        F64_NE => b32(a.f64() != b.f64()),
        F64_LT => b32(a.f64() < b.f64()),
        F64_GT => b32(a.f64() > b.f64()),
        F64_LE => b32(a.f64() <= b.f64()),
        F64_GE => b32(a.f64() >= b.f64()),
        // i32 arithmetic.
        I32_ADD => Slot::from_i32(a.i32().wrapping_add(b.i32())),
        I32_SUB => Slot::from_i32(a.i32().wrapping_sub(b.i32())),
        I32_MUL => Slot::from_i32(a.i32().wrapping_mul(b.i32())),
        I32_DIV_S => {
            let (x, y) = (a.i32(), b.i32());
            if y == 0 {
                return Err(Trap::DivisionByZero);
            }
            if x == i32::MIN && y == -1 {
                return Err(Trap::IntegerOverflow);
            }
            Slot::from_i32(x.wrapping_div(y))
        }
        I32_DIV_U => {
            let (x, y) = (a.u32(), b.u32());
            if y == 0 {
                return Err(Trap::DivisionByZero);
            }
            Slot::from_u32(x / y)
        }
        I32_REM_S => {
            let (x, y) = (a.i32(), b.i32());
            if y == 0 {
                return Err(Trap::DivisionByZero);
            }
            Slot::from_i32(x.wrapping_rem(y))
        }
        I32_REM_U => {
            let (x, y) = (a.u32(), b.u32());
            if y == 0 {
                return Err(Trap::DivisionByZero);
            }
            Slot::from_u32(x % y)
        }
        I32_AND => Slot::from_u32(a.u32() & b.u32()),
        I32_OR => Slot::from_u32(a.u32() | b.u32()),
        I32_XOR => Slot::from_u32(a.u32() ^ b.u32()),
        I32_SHL => Slot::from_i32(a.i32().wrapping_shl(b.u32())),
        I32_SHR_S => Slot::from_i32(a.i32().wrapping_shr(b.u32())),
        I32_SHR_U => Slot::from_u32(a.u32().wrapping_shr(b.u32())),
        I32_ROTL => Slot::from_u32(a.u32().rotate_left(b.u32() & 31)),
        I32_ROTR => Slot::from_u32(a.u32().rotate_right(b.u32() & 31)),
        // i64 arithmetic.
        I64_ADD => Slot::from_i64(a.i64().wrapping_add(b.i64())),
        I64_SUB => Slot::from_i64(a.i64().wrapping_sub(b.i64())),
        I64_MUL => Slot::from_i64(a.i64().wrapping_mul(b.i64())),
        I64_DIV_S => {
            let (x, y) = (a.i64(), b.i64());
            if y == 0 {
                return Err(Trap::DivisionByZero);
            }
            if x == i64::MIN && y == -1 {
                return Err(Trap::IntegerOverflow);
            }
            Slot::from_i64(x.wrapping_div(y))
        }
        I64_DIV_U => {
            let (x, y) = (a.u64(), b.u64());
            if y == 0 {
                return Err(Trap::DivisionByZero);
            }
            Slot::from_u64(x / y)
        }
        I64_REM_S => {
            let (x, y) = (a.i64(), b.i64());
            if y == 0 {
                return Err(Trap::DivisionByZero);
            }
            Slot::from_i64(x.wrapping_rem(y))
        }
        I64_REM_U => {
            let (x, y) = (a.u64(), b.u64());
            if y == 0 {
                return Err(Trap::DivisionByZero);
            }
            Slot::from_u64(x % y)
        }
        I64_AND => Slot::from_u64(a.u64() & b.u64()),
        I64_OR => Slot::from_u64(a.u64() | b.u64()),
        I64_XOR => Slot::from_u64(a.u64() ^ b.u64()),
        I64_SHL => Slot::from_i64(a.i64().wrapping_shl(b.u32())),
        I64_SHR_S => Slot::from_i64(a.i64().wrapping_shr(b.u32())),
        I64_SHR_U => Slot::from_u64(a.u64().wrapping_shr(b.u32())),
        I64_ROTL => Slot::from_u64(a.u64().rotate_left(b.u32() & 63)),
        I64_ROTR => Slot::from_u64(a.u64().rotate_right(b.u32() & 63)),
        // f32 arithmetic.
        F32_ADD => Slot::from_f32(a.f32() + b.f32()),
        F32_SUB => Slot::from_f32(a.f32() - b.f32()),
        F32_MUL => Slot::from_f32(a.f32() * b.f32()),
        F32_DIV => Slot::from_f32(a.f32() / b.f32()),
        F32_MIN => Slot::from_f32(fmin32(a.f32(), b.f32())),
        F32_MAX => Slot::from_f32(fmax32(a.f32(), b.f32())),
        F32_COPYSIGN => Slot::from_f32(a.f32().copysign(b.f32())),
        // f64 arithmetic.
        F64_ADD => Slot::from_f64(a.f64() + b.f64()),
        F64_SUB => Slot::from_f64(a.f64() - b.f64()),
        F64_MUL => Slot::from_f64(a.f64() * b.f64()),
        F64_DIV => Slot::from_f64(a.f64() / b.f64()),
        F64_MIN => Slot::from_f64(fmin64(a.f64(), b.f64())),
        F64_MAX => Slot::from_f64(fmax64(a.f64(), b.f64())),
        F64_COPYSIGN => Slot::from_f64(a.f64().copysign(b.f64())),
        _ => unreachable!("not a binop: {op:#04x}"),
    })
}

#[inline]
fn trunc_to_i32(v: f64) -> Result<i32, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    let t = v.trunc();
    if !(-2147483648.0..=2147483647.0).contains(&t) {
        return Err(Trap::InvalidConversion);
    }
    Ok(t as i32)
}

#[inline]
fn trunc_to_u32(v: f64) -> Result<u32, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    let t = v.trunc();
    if !(0.0..=4294967295.0).contains(&t) {
        return Err(Trap::InvalidConversion);
    }
    Ok(t as u32)
}

#[inline]
fn trunc_to_i64(v: f64) -> Result<i64, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    let t = v.trunc();
    if !(-9223372036854775808.0..9223372036854775808.0).contains(&t) {
        return Err(Trap::InvalidConversion);
    }
    Ok(t as i64)
}

#[inline]
fn trunc_to_u64(v: f64) -> Result<u64, Trap> {
    if v.is_nan() {
        return Err(Trap::InvalidConversion);
    }
    let t = v.trunc();
    if !(0.0..18446744073709551616.0).contains(&t) {
        return Err(Trap::InvalidConversion);
    }
    Ok(t as u64)
}

/// Evaluates a unary numeric instruction.
///
/// # Errors
///
/// Traps on invalid float-to-int conversions.
///
/// # Panics
///
/// Panics if `op` is not a unary instruction (validated code never does).
#[inline]
#[allow(clippy::too_many_lines)]
pub fn unop(op: u8, a: Slot) -> Result<Slot, Trap> {
    Ok(match op {
        I32_EQZ => b32(a.i32() == 0),
        I64_EQZ => b32(a.i64() == 0),
        I32_CLZ => Slot::from_u32(a.u32().leading_zeros()),
        I32_CTZ => Slot::from_u32(a.u32().trailing_zeros()),
        I32_POPCNT => Slot::from_u32(a.u32().count_ones()),
        I64_CLZ => Slot::from_u64(u64::from(a.u64().leading_zeros())),
        I64_CTZ => Slot::from_u64(u64::from(a.u64().trailing_zeros())),
        I64_POPCNT => Slot::from_u64(u64::from(a.u64().count_ones())),
        F32_ABS => Slot::from_f32(a.f32().abs()),
        F32_NEG => Slot::from_f32(-a.f32()),
        F32_CEIL => Slot::from_f32(a.f32().ceil()),
        F32_FLOOR => Slot::from_f32(a.f32().floor()),
        F32_TRUNC => Slot::from_f32(a.f32().trunc()),
        F32_NEAREST => Slot::from_f32(a.f32().round_ties_even()),
        F32_SQRT => Slot::from_f32(a.f32().sqrt()),
        F64_ABS => Slot::from_f64(a.f64().abs()),
        F64_NEG => Slot::from_f64(-a.f64()),
        F64_CEIL => Slot::from_f64(a.f64().ceil()),
        F64_FLOOR => Slot::from_f64(a.f64().floor()),
        F64_TRUNC => Slot::from_f64(a.f64().trunc()),
        F64_NEAREST => Slot::from_f64(a.f64().round_ties_even()),
        F64_SQRT => Slot::from_f64(a.f64().sqrt()),
        I32_WRAP_I64 => Slot::from_i32(a.i64() as i32),
        I32_TRUNC_F32_S => Slot::from_i32(trunc_to_i32(f64::from(a.f32()))?),
        I32_TRUNC_F32_U => Slot::from_u32(trunc_to_u32(f64::from(a.f32()))?),
        I32_TRUNC_F64_S => Slot::from_i32(trunc_to_i32(a.f64())?),
        I32_TRUNC_F64_U => Slot::from_u32(trunc_to_u32(a.f64())?),
        I64_EXTEND_I32_S => Slot::from_i64(i64::from(a.i32())),
        I64_EXTEND_I32_U => Slot::from_u64(u64::from(a.u32())),
        I64_TRUNC_F32_S => Slot::from_i64(trunc_to_i64(f64::from(a.f32()))?),
        I64_TRUNC_F32_U => Slot::from_u64(trunc_to_u64(f64::from(a.f32()))?),
        I64_TRUNC_F64_S => Slot::from_i64(trunc_to_i64(a.f64())?),
        I64_TRUNC_F64_U => Slot::from_u64(trunc_to_u64(a.f64())?),
        F32_CONVERT_I32_S => Slot::from_f32(a.i32() as f32),
        F32_CONVERT_I32_U => Slot::from_f32(a.u32() as f32),
        F32_CONVERT_I64_S => Slot::from_f32(a.i64() as f32),
        F32_CONVERT_I64_U => Slot::from_f32(a.u64() as f32),
        F32_DEMOTE_F64 => Slot::from_f32(a.f64() as f32),
        F64_CONVERT_I32_S => Slot::from_f64(f64::from(a.i32())),
        F64_CONVERT_I32_U => Slot::from_f64(f64::from(a.u32())),
        F64_CONVERT_I64_S => Slot::from_f64(a.i64() as f64),
        F64_CONVERT_I64_U => Slot::from_f64(a.u64() as f64),
        F64_PROMOTE_F32 => Slot::from_f64(f64::from(a.f32())),
        I32_REINTERPRET_F32 => Slot::from_u32(a.u32()),
        I64_REINTERPRET_F64 => Slot::from_u64(a.u64()),
        F32_REINTERPRET_I32 => Slot::from_u32(a.u32()),
        F64_REINTERPRET_I64 => Slot::from_u64(a.u64()),
        I32_EXTEND8_S => Slot::from_i32(i32::from(a.i32() as i8)),
        I32_EXTEND16_S => Slot::from_i32(i32::from(a.i32() as i16)),
        I64_EXTEND8_S => Slot::from_i64(i64::from(a.i64() as i8)),
        I64_EXTEND16_S => Slot::from_i64(i64::from(a.i64() as i16)),
        I64_EXTEND32_S => Slot::from_i64(i64::from(a.i64() as i32)),
        _ => unreachable!("not a unop: {op:#04x}"),
    })
}

/// Executes a load instruction against `mem`.
///
/// # Errors
///
/// Traps on out-of-bounds access.
#[inline]
pub fn do_load(mem: &Memory, op: u8, addr: u32, offset: u32) -> Result<Slot, Trap> {
    Ok(match op {
        I32_LOAD => Slot::from_i32(i32::from_le_bytes(mem.read::<4>(addr, offset)?)),
        I64_LOAD => Slot::from_i64(i64::from_le_bytes(mem.read::<8>(addr, offset)?)),
        F32_LOAD => Slot::from_u32(u32::from_le_bytes(mem.read::<4>(addr, offset)?)),
        F64_LOAD => Slot::from_u64(u64::from_le_bytes(mem.read::<8>(addr, offset)?)),
        I32_LOAD8_S => Slot::from_i32(i32::from(i8::from_le_bytes(mem.read::<1>(addr, offset)?))),
        I32_LOAD8_U => Slot::from_u32(u32::from(mem.read::<1>(addr, offset)?[0])),
        I32_LOAD16_S => Slot::from_i32(i32::from(i16::from_le_bytes(mem.read::<2>(addr, offset)?))),
        I32_LOAD16_U => Slot::from_u32(u32::from(u16::from_le_bytes(mem.read::<2>(addr, offset)?))),
        I64_LOAD8_S => Slot::from_i64(i64::from(i8::from_le_bytes(mem.read::<1>(addr, offset)?))),
        I64_LOAD8_U => Slot::from_u64(u64::from(mem.read::<1>(addr, offset)?[0])),
        I64_LOAD16_S => Slot::from_i64(i64::from(i16::from_le_bytes(mem.read::<2>(addr, offset)?))),
        I64_LOAD16_U => Slot::from_u64(u64::from(u16::from_le_bytes(mem.read::<2>(addr, offset)?))),
        I64_LOAD32_S => Slot::from_i64(i64::from(i32::from_le_bytes(mem.read::<4>(addr, offset)?))),
        I64_LOAD32_U => Slot::from_u64(u64::from(u32::from_le_bytes(mem.read::<4>(addr, offset)?))),
        _ => unreachable!("not a load: {op:#04x}"),
    })
}

/// Executes a store instruction against `mem`.
///
/// # Errors
///
/// Traps on out-of-bounds access.
#[inline]
pub fn do_store(mem: &mut Memory, op: u8, addr: u32, offset: u32, val: Slot) -> Result<(), Trap> {
    match op {
        I32_STORE => mem.write::<4>(addr, offset, val.i32().to_le_bytes()),
        I64_STORE => mem.write::<8>(addr, offset, val.i64().to_le_bytes()),
        F32_STORE => mem.write::<4>(addr, offset, val.u32().to_le_bytes()),
        F64_STORE => mem.write::<8>(addr, offset, val.u64().to_le_bytes()),
        I32_STORE8 => mem.write::<1>(addr, offset, [val.u32() as u8]),
        I32_STORE16 => mem.write::<2>(addr, offset, (val.u32() as u16).to_le_bytes()),
        I64_STORE8 => mem.write::<1>(addr, offset, [val.u64() as u8]),
        I64_STORE16 => mem.write::<2>(addr, offset, (val.u64() as u16).to_le_bytes()),
        I64_STORE32 => mem.write::<4>(addr, offset, (val.u64() as u32).to_le_bytes()),
        _ => unreachable!("not a store: {op:#04x}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wizard_wasm::types::Limits;

    #[test]
    fn i32_div_rem_edges() {
        let min = Slot::from_i32(i32::MIN);
        let neg1 = Slot::from_i32(-1);
        let zero = Slot::from_i32(0);
        assert_eq!(binop(I32_DIV_S, min, neg1), Err(Trap::IntegerOverflow));
        assert_eq!(binop(I32_DIV_S, min, zero), Err(Trap::DivisionByZero));
        assert_eq!(binop(I32_REM_S, min, neg1).unwrap().i32(), 0);
        assert_eq!(binop(I32_DIV_U, Slot::from_u32(7), Slot::from_u32(2)).unwrap().u32(), 3);
    }

    #[test]
    fn i64_div_rem_edges() {
        let min = Slot::from_i64(i64::MIN);
        let neg1 = Slot::from_i64(-1);
        assert_eq!(binop(I64_DIV_S, min, neg1), Err(Trap::IntegerOverflow));
        assert_eq!(binop(I64_REM_S, min, neg1).unwrap().i64(), 0);
    }

    #[test]
    fn shifts_mask_their_count() {
        assert_eq!(binop(I32_SHL, Slot::from_i32(1), Slot::from_i32(33)).unwrap().i32(), 2);
        assert_eq!(binop(I64_SHL, Slot::from_i64(1), Slot::from_i64(65)).unwrap().i64(), 2);
        assert_eq!(binop(I32_SHR_S, Slot::from_i32(-8), Slot::from_i32(1)).unwrap().i32(), -4);
        assert_eq!(
            binop(I32_SHR_U, Slot::from_i32(-8), Slot::from_i32(1)).unwrap().u32(),
            0x7fff_fffc
        );
    }

    #[test]
    fn float_min_max_nan_and_zero_semantics() {
        let nan = Slot::from_f64(f64::NAN);
        let one = Slot::from_f64(1.0);
        assert!(binop(F64_MIN, nan, one).unwrap().f64().is_nan());
        assert!(binop(F64_MAX, one, nan).unwrap().f64().is_nan());
        let nz = Slot::from_f64(-0.0);
        let pz = Slot::from_f64(0.0);
        assert!(binop(F64_MIN, pz, nz).unwrap().f64().is_sign_negative());
        assert!(binop(F64_MAX, pz, nz).unwrap().f64().is_sign_positive());
    }

    #[test]
    fn trunc_traps_on_nan_and_overflow() {
        assert_eq!(unop(I32_TRUNC_F64_S, Slot::from_f64(f64::NAN)), Err(Trap::InvalidConversion));
        assert_eq!(unop(I32_TRUNC_F64_S, Slot::from_f64(3e9)), Err(Trap::InvalidConversion));
        assert_eq!(unop(I32_TRUNC_F64_S, Slot::from_f64(-3e9)), Err(Trap::InvalidConversion));
        assert_eq!(unop(I32_TRUNC_F64_S, Slot::from_f64(2147483647.9)).unwrap().i32(), i32::MAX);
        assert_eq!(unop(I32_TRUNC_F64_U, Slot::from_f64(-0.9)).unwrap().u32(), 0);
        assert_eq!(unop(I64_TRUNC_F64_U, Slot::from_f64(-1.0)), Err(Trap::InvalidConversion));
    }

    #[test]
    fn sign_extension_ops() {
        assert_eq!(unop(I32_EXTEND8_S, Slot::from_i32(0x80)).unwrap().i32(), -128);
        assert_eq!(unop(I32_EXTEND16_S, Slot::from_i32(0x8000)).unwrap().i32(), -32768);
        assert_eq!(unop(I64_EXTEND32_S, Slot::from_i64(0x8000_0000)).unwrap().i64(), -2147483648);
    }

    #[test]
    fn nearest_is_ties_even() {
        assert_eq!(unop(F64_NEAREST, Slot::from_f64(2.5)).unwrap().f64(), 2.0);
        assert_eq!(unop(F64_NEAREST, Slot::from_f64(3.5)).unwrap().f64(), 4.0);
        assert_eq!(unop(F64_NEAREST, Slot::from_f64(-2.5)).unwrap().f64(), -2.0);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let mut mem = Memory::new(Limits::at_least(1));
        do_store(&mut mem, I64_STORE, 8, 0, Slot::from_i64(-2)).unwrap();
        assert_eq!(do_load(&mem, I64_LOAD, 8, 0).unwrap().i64(), -2);
        do_store(&mut mem, I32_STORE16, 0, 2, Slot::from_i32(0xBEEF)).unwrap();
        assert_eq!(do_load(&mem, I32_LOAD16_U, 0, 2).unwrap().u32(), 0xBEEF);
        assert_eq!(do_load(&mem, I32_LOAD16_S, 0, 2).unwrap().i32(), 0xBEEF - 0x10000);
        do_store(&mut mem, F64_STORE, 16, 0, Slot::from_f64(2.5)).unwrap();
        assert_eq!(do_load(&mem, F64_LOAD, 16, 0).unwrap().f64(), 2.5);
        assert!(do_load(&mem, I32_LOAD, u32::MAX, 0).is_err());
    }

    #[test]
    fn classification_covers_expected_sets() {
        let mut bin = 0;
        let mut un = 0;
        for op in 0u8..=0xff {
            if is_binop(op) {
                bin += 1;
            }
            if is_unop(op) {
                un += 1;
            }
            assert!(!(is_binop(op) && is_unop(op)), "op {op:#x} double-classified");
        }
        // 2×10 int cmps (eqz excluded) + 2×6 float cmps + 2×15 int arith
        // + 2×7 float arith = 76 binops; 2 eqz + 6 bit-counts + 14 float
        // unaries + 25 conversions + 5 sign-extensions = 52 unops.
        assert_eq!(bin, 76);
        assert_eq!(un, 52);
    }
}
