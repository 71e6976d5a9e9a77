//! The 32-bit multiply-accumulate register.

use core::fmt;
use core::ops::{Add, Sub};

use crate::{Rounding, Q15};

/// A 32-bit accumulator for Q15 multiply-accumulate chains.
///
/// Products of two Q0.15 samples are Q1.30 values; summing a realistic
/// filter length (tens of taps) fits comfortably in 32 bits, matching the
/// single-cycle MAC units of the ARM-class cores modelled by the SoC
/// substrate. Accumulation itself saturates at the i32 limits rather than
/// wrapping, and the value only re-enters the (faulty, protected) data
/// memory via [`Acc32::to_q15`], which performs the explicit narrowing.
///
/// ```
/// use dream_fixed::{Acc32, Q15, Rounding};
/// let x = Q15::from_f64(0.5);
/// let acc = Acc32::ZERO.mac(x, x).mac(x, x); // 0.25 + 0.25
/// assert_eq!(acc.to_q15(Rounding::Nearest).to_f64(), 0.5);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Acc32(i32);

impl Acc32 {
    /// The empty accumulator.
    pub const ZERO: Acc32 = Acc32(0);

    /// Creates an accumulator from a raw Q1.30 value.
    #[inline]
    pub const fn from_raw(raw: i32) -> Self {
        Acc32(raw)
    }

    /// Loads a Q15 sample into the accumulator (shifted up to Q1.30).
    #[inline]
    pub fn from_q15(sample: Q15) -> Self {
        Acc32(i32::from(sample.raw()) << 15)
    }

    /// Returns the raw Q1.30 contents.
    #[inline]
    pub const fn raw(self) -> i32 {
        self.0
    }

    /// Multiply-accumulate: `self + a * b`, saturating.
    #[inline]
    pub fn mac(self, a: Q15, b: Q15) -> Acc32 {
        self.saturating_add_raw(i32::from(a.raw()) * i32::from(b.raw()))
    }

    /// Accumulates a sample scaled by a small integer (shift-add filters
    /// with taps like 1, 3, 3, 1). Saturates at the Q1.30 limits — sums
    /// whose magnitude exceeds 2.0 need integer-domain accumulation
    /// instead.
    #[inline]
    pub fn mac_int(self, a: Q15, k: i32) -> Acc32 {
        let wide = (i64::from(a.raw()) * i64::from(k)) << 15;
        let clamped = wide.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
        self.saturating_add_raw(clamped)
    }

    /// Narrows back to a Q15 sample with the given rounding, saturating at
    /// the format limits.
    pub fn to_q15(self, rounding: Rounding) -> Q15 {
        let shifted = rounding.shift_right(i64::from(self.0), 15);
        Q15::from_raw(shifted.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16)
    }

    /// Narrows with an additional right shift (for kernels whose taps carry
    /// a power-of-two gain, e.g. the `/8` of the spline low-pass filter).
    pub fn to_q15_shifted(self, extra_shift: u32, rounding: Rounding) -> Q15 {
        let shifted = rounding.shift_right(i64::from(self.0), 15 + extra_shift);
        Q15::from_raw(shifted.clamp(i64::from(i16::MIN), i64::from(i16::MAX)) as i16)
    }

    /// Returns the accumulator value as a float in sample units (the raw
    /// contents interpreted as Q1.30).
    pub fn to_f64(self) -> f64 {
        f64::from(self.0) / (1u64 << 30) as f64
    }

    #[inline]
    fn saturating_add_raw(self, raw: i32) -> Acc32 {
        Acc32(self.0.saturating_add(raw))
    }
}

/// Dot product of two equal-length raw-Q15 slices, bit-identical to
/// folding [`Acc32::mac`] over the pairs starting from [`Acc32::ZERO`] —
/// restructured so the common case autovectorizes.
///
/// Saturation makes the sequential fold order-sensitive in general, so the
/// fast path is gated on a per-call proof that no prefix of the sum can
/// saturate: when `Σ|a[i]| ≤ 65535` (raw units — a row gain below 2.0),
/// every prefix of `Σ a[i]·b[i]` is bounded by `32768 · 65535 < 2³¹`, the
/// saturating adds all behave as plain adds, and the sum may be
/// reassociated freely — here into eight independent i32 lanes the
/// compiler turns into SIMD multiply-accumulates. Slices failing the bound
/// fall back to the exact sequential fold.
///
/// ```
/// use dream_fixed::{dot_q15, Acc32, Q15};
/// let a = [16384i16, -8192, 4096];
/// let b = [1000i16, 2000, -3000];
/// let fold = a.iter().zip(&b).fold(Acc32::ZERO, |acc, (&x, &y)| {
///     acc.mac(Q15::from_raw(x), Q15::from_raw(y))
/// });
/// assert_eq!(dot_q15(&a, &b), fold);
/// ```
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_q15(a: &[i16], b: &[i16]) -> Acc32 {
    assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    let gain: u32 = a.iter().map(|&v| u32::from(v.unsigned_abs())).sum();
    if gain <= u32::from(u16::MAX) {
        const LANES: usize = 8;
        let mut lanes = [0i32; LANES];
        let mut ca = a.chunks_exact(LANES);
        let mut cb = b.chunks_exact(LANES);
        for (xs, ys) in (&mut ca).zip(&mut cb) {
            for (lane, (&x, &y)) in lanes.iter_mut().zip(xs.iter().zip(ys)) {
                *lane += i32::from(x) * i32::from(y);
            }
        }
        let mut total: i32 = lanes.iter().sum();
        for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
            total += i32::from(x) * i32::from(y);
        }
        Acc32(total)
    } else {
        a.iter().zip(b).fold(Acc32::ZERO, |acc, (&x, &y)| {
            acc.mac(Q15::from_raw(x), Q15::from_raw(y))
        })
    }
}

impl Add for Acc32 {
    type Output = Acc32;
    fn add(self, rhs: Acc32) -> Acc32 {
        Acc32(self.0.saturating_add(rhs.0))
    }
}

impl Sub for Acc32 {
    type Output = Acc32;
    fn sub(self, rhs: Acc32) -> Acc32 {
        Acc32(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for Acc32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Acc32({})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_chain_matches_float() {
        let taps = [0.25, -0.5, 0.125, 0.375];
        let xs = [0.9, -0.7, 0.3, -0.1];
        let mut acc = Acc32::ZERO;
        let mut reference = 0.0;
        for (t, x) in taps.iter().zip(&xs) {
            acc = acc.mac(Q15::from_f64(*t), Q15::from_f64(*x));
            reference += t * x;
        }
        assert!((acc.to_q15(Rounding::Nearest).to_f64() - reference).abs() < 1e-3);
    }

    #[test]
    fn from_q15_round_trips() {
        for raw in [-32768i16, -1, 0, 1, 32767] {
            let q = Q15::from_raw(raw);
            assert_eq!(Acc32::from_q15(q).to_q15(Rounding::Floor), q);
        }
    }

    #[test]
    fn narrowing_saturates() {
        let big = Acc32::from_raw(i32::MAX);
        assert_eq!(big.to_q15(Rounding::Nearest).raw(), i16::MAX);
        let small = Acc32::from_raw(i32::MIN);
        assert_eq!(small.to_q15(Rounding::Nearest).raw(), i16::MIN);
    }

    #[test]
    fn mac_int_applies_integer_taps() {
        // (1*x + 3*x + 3*x + 1*x) >> 3 == x for the spline low-pass.
        let x = Q15::from_f64(0.123);
        let acc = Acc32::ZERO
            .mac_int(x, 1)
            .mac_int(x, 3)
            .mac_int(x, 3)
            .mac_int(x, 1);
        let y = acc.to_q15_shifted(3, Rounding::Nearest);
        assert_eq!(y, x);
    }

    #[test]
    fn accumulation_saturates_instead_of_wrapping() {
        let mut acc = Acc32::ZERO;
        let one = Q15::from_raw(i16::MAX);
        for _ in 0..10_000 {
            acc = acc.mac(one, one);
        }
        assert_eq!(acc.raw(), i32::MAX);
    }

    /// The exact sequential specification `dot_q15` promises to match.
    fn fold_mac(a: &[i16], b: &[i16]) -> Acc32 {
        a.iter().zip(b).fold(Acc32::ZERO, |acc, (&x, &y)| {
            acc.mac(Q15::from_raw(x), Q15::from_raw(y))
        })
    }

    #[test]
    fn dot_matches_sequential_fold_on_typical_rows() {
        // Lengths straddling the unroll width, values mixing signs and
        // both i16 extremes, low enough total gain for the fast path.
        for n in [0usize, 1, 7, 8, 9, 31, 64, 65] {
            let a: Vec<i16> = (0..n)
                .map(|i| ((i * 2654435761) % 1031) as i16 - 515)
                .collect();
            let b: Vec<i16> = (0..n)
                .map(|i| {
                    if i == 0 {
                        i16::MIN
                    } else {
                        (((i * 40503) % 65536) as i32 - 32768) as i16
                    }
                })
                .collect();
            assert_eq!(dot_q15(&a, &b), fold_mac(&a, &b), "n = {n}");
        }
    }

    #[test]
    fn dot_matches_sequential_fold_when_saturating() {
        // Σ|a| far above the fast-path bound: the fold saturates both
        // directions mid-chain, so only the sequential path is correct —
        // and dot_q15 must take it.
        let a = vec![i16::MIN; 4000];
        let b: Vec<i16> = (0..4000)
            .map(|i| if i % 3 == 0 { i16::MIN } else { i16::MAX })
            .collect();
        assert_eq!(dot_q15(&a, &b), fold_mac(&a, &b));
        // Alternating signs so prefixes cross both rails.
        let c: Vec<i16> = (0..4000)
            .map(|i| if i % 2 == 0 { i16::MAX } else { i16::MIN })
            .collect();
        assert_eq!(dot_q15(&a, &c), fold_mac(&a, &c));
    }

    #[test]
    fn dot_boundary_gain_still_exact() {
        // Exactly at the fast-path bound (Σ|a| = 65535): the largest
        // prefix magnitude is 65535·32768 < i32::MAX, so no saturation.
        let a = vec![i16::MIN, 32767, 0, 0];
        let b = vec![i16::MIN, i16::MIN, 123, -123];
        assert_eq!(dot_q15(&a, &b), fold_mac(&a, &b));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn dot_rejects_length_mismatch() {
        let _ = dot_q15(&[1, 2], &[3]);
    }
}
