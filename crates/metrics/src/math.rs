//! Elementary functions from IEEE-754 basic operations only.
//!
//! `f64::ln`, `f64::exp` and friends call the platform's libm, whose
//! last-bit choices differ between C libraries and versions. Everything
//! here is built from `+ − × ÷`, `sqrt`, comparisons and bit
//! manipulation, each of which IEEE-754 rounds exactly, so a result is the
//! same on every host. The simulator's seeded draws (arrival gaps, the
//! jitter model's lognormal tables) are built on these and are therefore
//! portable to the last bit.

use std::f64::consts::{LN_2, LOG2_E, SQRT_2};

/// Natural log. Splits `x = m·2^e` with `m ∈ [√½, √2)` and sums the atanh
/// series in `t = (m−1)/(m+1)` (|t| ≤ 0.172, so the truncated `t¹¹` term
/// is < 1e-10 relative): ~3× cheaper than libm's `ln`. Only valid for
/// normal positive `x`, which `1 − u`, `u ∈ [0,1)` from a 53-bit uniform,
/// always is.
pub fn fast_ln(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_normal());
    let bits = x.to_bits();
    let mut e = ((bits >> 52) as i32) - 1023;
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | 0x3ff0_0000_0000_0000);
    if m > SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let series = 1.0
        + t2 * (1.0 / 3.0
            + t2 * (1.0 / 5.0 + t2 * (1.0 / 7.0 + t2 * (1.0 / 9.0 + t2 * (1.0 / 11.0)))));
    2.0 * t * series + f64::from(e) * LN_2
}

/// `e^x`, to within a few ulp. Reduces `x = k·ln 2 + r` with `|r| ≤ ½ ln 2`
/// (Cody–Waite: `ln 2` split so `k·LN2_HI` is exact), sums the Taylor
/// series of `e^r` to `r¹³` (the first dropped term is < 1e-17 relative)
/// and scales by `2^k` through the exponent bits. Underflows to 0 below
/// −708 and overflows to ∞ above 709.
pub fn exp(x: f64) -> f64 {
    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    if x.is_nan() {
        return x;
    }
    if x < -708.0 {
        return 0.0;
    }
    if x > 709.0 {
        return f64::INFINITY;
    }
    let k = (x * LOG2_E + if x < 0.0 { -0.5 } else { 0.5 }) as i32;
    let kf = f64::from(k);
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    let mut sum = 1.0;
    for n in (1..=13).rev() {
        sum = 1.0 + sum * r / f64::from(n);
    }
    sum * f64::from_bits(((k + 1023) as u64) << 52)
}

/// The standard normal quantile `Φ⁻¹(p)` for `p ∈ (0, 1)`: Acklam's
/// rational approximation, relative error below 1.15e-9, with a central
/// region and two tails split at `p = 0.02425`.
pub fn normal_quantile(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    debug_assert!(p > 0.0 && p < 1.0, "quantile of p = {p}");
    let horner = |coeffs: &[f64], x: f64| coeffs.iter().fold(0.0, |acc, &c| acc * x + c);
    let tail = |q: f64| horner(&C, q) / (horner(&D, q) * q + 1.0);
    if p < P_LOW {
        tail((-2.0 * fast_ln(p)).sqrt())
    } else if p > 1.0 - P_LOW {
        -tail((-2.0 * fast_ln(1.0 - p)).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        horner(&A, r) * q / (horner(&B, r) * r + 1.0)
    }
}

/// The standard normal upper tail `1 − Φ(a)`: composite Simpson over
/// `[|a|, |a| + 8]` (the mass beyond is below 1e-14 of the tail), mirrored
/// for negative `a`. Accurate to ~1e-9 absolute; meant for building
/// tables, not for hot paths.
pub fn normal_upper_tail(a: f64) -> f64 {
    const STEPS: u32 = 1024;
    const SPAN: f64 = 8.0;
    let lo = a.abs();
    let h = SPAN / f64::from(STEPS);
    let density = |z: f64| exp(-0.5 * z * z);
    let mut sum = density(lo) + density(lo + SPAN);
    for i in 1..STEPS {
        let weight = if i % 2 == 1 { 4.0 } else { 2.0 };
        sum += weight * density(lo + f64::from(i) * h);
    }
    // 1/√(2π), the normal density's constant.
    let tail = sum * h / 3.0 * 0.398_942_280_401_432_7;
    if a < 0.0 {
        1.0 - tail
    } else {
        tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_ln_matches_libm() {
        // Sweep (0, 1] — the 1−u domain — plus values above 1 for safety.
        let mut x = 1e-300f64;
        while x <= 4.0 {
            let got = fast_ln(x);
            let want = x.ln();
            let tol = want.abs().max(1.0) * 1e-9;
            assert!((got - want).abs() < tol, "x={x}: {got} vs {want}");
            x *= 1.37;
        }
        assert_eq!(fast_ln(1.0), 0.0);
    }

    #[test]
    fn exp_matches_libm() {
        let mut x = -700.0;
        while x <= 700.0 {
            let (got, want) = (exp(x), x.exp());
            assert!((got - want).abs() <= want * 1e-15, "x={x}: {got} vs {want}");
            x += 0.737;
        }
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-800.0), 0.0);
        assert_eq!(exp(800.0), f64::INFINITY);
    }

    #[test]
    fn normal_quantile_matches_known_values() {
        // Φ⁻¹ at 0.5, 0.975, 0.999 and 1e-6 (tables to 16 digits).
        let known = [
            (0.5, 0.0),
            (0.975, 1.959_963_984_540_054),
            (0.999, 3.090_232_306_167_813),
            (1e-6, -4.753_424_308_822_899),
        ];
        for (p, want) in known {
            let got = normal_quantile(p);
            assert!(
                (got - want).abs() <= 2e-9 * want.abs().max(1.0),
                "p={p}: {got}"
            );
            if p != 0.5 {
                assert!(
                    (normal_quantile(1.0 - p) + got).abs() < 1e-8,
                    "p={p}: asymmetric"
                );
            }
        }
    }

    #[test]
    fn normal_upper_tail_matches_known_values() {
        // 1 − Φ(a) at 0, 1.959963984540054 (2.5%), 3.090232306167813 (0.1%).
        let known = [
            (0.0, 0.5),
            (1.959_963_984_540_054, 0.025),
            (3.090_232_306_167_813, 0.001),
        ];
        for (a, want) in known {
            assert!((normal_upper_tail(a) - want).abs() < 1e-9, "a={a}");
            assert!(
                (normal_upper_tail(-a) - (1.0 - want)).abs() < 1e-9,
                "a=-{a}"
            );
        }
    }
}
