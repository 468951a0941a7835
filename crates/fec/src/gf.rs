//! Arithmetic in the finite field GF(2⁸).
//!
//! The field is constructed modulo the primitive polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (0x11D), the same polynomial used by RAID-6 and
//! most Reed–Solomon deployments. Multiplication and inversion go through
//! compile-time log/exp tables, so the hot encode/decode loops are a couple
//! of table lookups per byte.

/// The primitive polynomial (without the x⁸ term) defining the field.
pub const PRIMITIVE_POLY: u16 = 0x11D;

/// `EXP[i] = α^i` for the generator `α = 2`, doubled in length so that
/// multiplication can skip the `% 255` reduction.
const EXP: [u8; 512] = build_exp();
/// `LOG[x]` is the discrete logarithm of `x` (undefined, stored as 0, for
/// `x = 0`).
const LOG: [u8; 256] = build_log();

const fn build_exp() -> [u8; 512] {
    let mut table = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        table[i] = x as u8;
        table[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= PRIMITIVE_POLY;
        }
        i += 1;
    }
    // Positions 510/511 are never read (log sums are < 510) but keep the
    // table total.
    table[510] = table[0];
    table[511] = table[1];
    table
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        table[exp[i] as usize] = i as u8;
        i += 1;
    }
    table
}

/// Adds two field elements (XOR — addition and subtraction coincide in
/// characteristic 2).
#[inline]
pub const fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two field elements.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Divides `a` by `b`.
///
/// # Panics
///
/// Panics if `b == 0`.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + 255 - LOG[b as usize] as usize]
    }
}

/// Returns the multiplicative inverse of `a`.
///
/// # Panics
///
/// Panics if `a == 0` (zero has no inverse).
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(256)");
    EXP[255 - LOG[a as usize] as usize]
}

/// Raises `a` to the power `n`.
pub fn pow(a: u8, n: u32) -> u8 {
    if n == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let log = LOG[a as usize] as u32;
    EXP[((log as u64 * n as u64) % 255) as usize]
}

/// Returns `α^i` for the field generator `α = 2`.
#[inline]
pub fn exp(i: u8) -> u8 {
    EXP[i as usize]
}

/// Length at or above which [`mul_acc_slice`] amortises a 256-byte
/// multiplication table instead of doing two log/exp lookups per byte.
const MUL_TABLE_THRESHOLD: usize = 128;

/// Builds the 256-byte row of the multiplication table for `c`:
/// `table[s] = c * s` (`c != 0`).
#[inline]
fn mul_table(c: u8) -> [u8; 256] {
    let log_c = LOG[c as usize] as usize;
    let mut table = [0u8; 256];
    let mut s = 1usize;
    while s <= 255 {
        table[s] = EXP[log_c + LOG[s] as usize];
        s += 1;
    }
    table
}

/// Multiplies every byte of `src` by `c` and XORs the products into `dst`
/// (`dst[i] ^= c * src[i]`) — the inner loop of Reed–Solomon encoding.
///
/// With the `simd` feature enabled (and a capable CPU) slices of at least
/// 16 bytes go through the nibble-shuffle vector kernels in
/// the `simd` module, 16 lanes per instruction. Otherwise, for
/// shard-sized slices the `LOG[c]` row is hoisted into a 256-byte per-call
/// multiplication table: one table build per shard operation, then a
/// single lookup+xor per byte instead of two lookups and a zero-check
/// branch. Short slices keep the direct log/exp path, where the table
/// would cost more than it saves. All paths produce identical bytes.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_acc_slice(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "slice length mismatch");
    if c == 0 {
        return;
    }
    #[cfg(feature = "simd")]
    if dst.len() >= 16 && crate::simd::available() {
        crate::simd::mul_acc_slice(dst, src, c);
        return;
    }
    if dst.len() >= MUL_TABLE_THRESHOLD {
        let table = mul_table(c);
        for (d, &s) in dst.iter_mut().zip(src) {
            *d ^= table[s as usize];
        }
    } else {
        let log_c = LOG[c as usize] as usize;
        for (d, &s) in dst.iter_mut().zip(src) {
            if s != 0 {
                *d ^= EXP[log_c + LOG[s as usize] as usize];
            }
        }
    }
}

/// Multiplies every byte of `data` by `c` in place — the row-scaling step
/// of Gauss–Jordan elimination (matrix inversion and Reed–Solomon
/// reconstruction).
///
/// With the `simd` feature enabled (and a capable CPU) slices of at least
/// 16 bytes go through the same nibble-shuffle vector kernels as
/// [`mul_acc_slice`]; otherwise the scalar log/exp path runs. All paths
/// produce identical bytes.
pub fn mul_slice(data: &mut [u8], c: u8) {
    if c == 0 {
        data.fill(0);
        return;
    }
    if c == 1 {
        return;
    }
    #[cfg(feature = "simd")]
    if data.len() >= 16 && crate::simd::available() {
        crate::simd::mul_slice(data, c);
        return;
    }
    let log_c = LOG[c as usize] as usize;
    for d in data.iter_mut() {
        if *d != 0 {
            *d = EXP[log_c + LOG[*d as usize] as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_consistent() {
        for i in 1..=255u16 {
            let x = i as u8;
            assert_eq!(exp(LOG[x as usize]), x, "exp(log({x})) != {x}");
        }
    }

    #[test]
    fn addition_is_xor() {
        assert_eq!(add(0b1010, 0b0110), 0b1100);
        for x in 0..=255u8 {
            assert_eq!(add(x, x), 0, "every element is its own additive inverse");
        }
    }

    #[test]
    fn multiplication_by_zero_and_one() {
        for x in 0..=255u8 {
            assert_eq!(mul(x, 0), 0);
            assert_eq!(mul(0, x), 0);
            assert_eq!(mul(x, 1), x);
            assert_eq!(mul(1, x), x);
        }
    }

    #[test]
    fn multiplication_is_commutative_and_associative() {
        // Spot-check associativity over a stride of triples (the full cube is
        // 16M cases; the stride still covers all byte patterns).
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                assert_eq!(mul(a, b), mul(b, a));
                for c in (0..=255u8).step_by(31) {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributivity() {
        for a in (0..=255u8).step_by(5) {
            for b in (0..=255u8).step_by(13) {
                for c in (0..=255u8).step_by(17) {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn inverse_and_division() {
        for x in 1..=255u8 {
            assert_eq!(mul(x, inv(x)), 1, "x * x^-1 must be 1 for x={x}");
            assert_eq!(div(x, x), 1);
            assert_eq!(div(0, x), 0);
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        div(1, 0);
    }

    #[test]
    #[should_panic(expected = "no inverse")]
    fn inverse_of_zero_panics() {
        inv(0);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 3, 29, 76, 255] {
            let mut acc = 1u8;
            for n in 0..20u32 {
                assert_eq!(pow(a, n), acc, "a={a}, n={n}");
                acc = mul(acc, a);
            }
        }
        assert_eq!(pow(0, 0), 1, "0^0 = 1 by convention");
    }

    #[test]
    fn generator_has_full_order() {
        // α = 2 must generate all 255 non-zero elements.
        let mut seen = [false; 256];
        let mut x = 1u8;
        for _ in 0..255 {
            assert!(!seen[x as usize], "generator order < 255");
            seen[x as usize] = true;
            x = mul(x, 2);
        }
        assert_eq!(x, 1, "α^255 must wrap to 1");
    }

    #[test]
    fn mul_acc_slice_matches_scalar() {
        let src = [1u8, 2, 3, 0, 255, 17];
        let mut dst = [9u8, 8, 7, 6, 5, 4];
        let expected: Vec<u8> = dst.iter().zip(&src).map(|(&d, &s)| add(d, mul(s, 0x1D))).collect();
        mul_acc_slice(&mut dst, &src, 0x1D);
        assert_eq!(dst.to_vec(), expected);
    }

    #[test]
    fn mul_acc_slice_table_path_matches_scalar() {
        // Long enough to take the table path; covers every byte value.
        let src: Vec<u8> = (0..=255u8).chain(0..=255u8).collect();
        for c in [1u8, 2, 0x1D, 76, 255] {
            let mut dst = vec![0xAAu8; src.len()];
            let expected: Vec<u8> =
                dst.iter().zip(&src).map(|(&d, &s)| add(d, mul(s, c))).collect();
            mul_acc_slice(&mut dst, &src, c);
            assert_eq!(dst, expected, "table path diverges for c={c}");
        }
    }

    #[test]
    fn mul_acc_slice_zero_coefficient_is_noop() {
        let src = [1u8, 2, 3];
        let mut dst = [4u8, 5, 6];
        mul_acc_slice(&mut dst, &src, 0);
        assert_eq!(dst, [4, 5, 6]);
    }

    #[test]
    fn mul_slice_scales_in_place() {
        let mut data = [1u8, 2, 0, 200];
        let expected: Vec<u8> = data.iter().map(|&d| mul(d, 3)).collect();
        mul_slice(&mut data, 3);
        assert_eq!(data.to_vec(), expected);

        let mut zeroed = [5u8, 6];
        mul_slice(&mut zeroed, 0);
        assert_eq!(zeroed, [0, 0]);
    }
}
