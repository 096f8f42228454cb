//! Storage dtypes for mixed-precision training.
//!
//! Betty's compute is f32 everywhere — gradients, optimizer moments, and
//! every accumulation. What `DType` controls is *storage*: node features
//! (both `Features` backends, including the on-disk shard payloads)
//! and forward activations can be held at bf16/f16 width, halving the
//! bytes the Eq. 5 planner has to budget for. A stored value is encoded
//! with round-to-nearest-even and decoded back to f32 before any
//! arithmetic touches it, so a run at a given dtype is deterministic:
//! quantization is a pure function of the value, never of timing or
//! thread count.

use std::fmt;

/// Width of a stored tensor value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DType {
    /// 32-bit IEEE float — the reference storage (no quantization).
    #[default]
    F32,
    /// bfloat16: f32's exponent range, 8-bit significand. Preferred for
    /// training because overflow behaviour matches f32.
    Bf16,
    /// IEEE binary16: 5-bit exponent, 11-bit significand. More mantissa
    /// than bf16 but overflows past ~65504.
    F16,
}

impl DType {
    /// Bytes one stored value occupies at this width.
    pub const fn bytes_per_value(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::Bf16 | DType::F16 => 2,
        }
    }

    /// Stable lowercase name (CLI flag value, trace tag, shard header).
    pub const fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::Bf16 => "bf16",
            DType::F16 => "f16",
        }
    }

    /// Parses a [`DType::name`] string.
    pub fn parse(s: &str) -> Option<DType> {
        match s {
            "f32" => Some(DType::F32),
            "bf16" => Some(DType::Bf16),
            "f16" => Some(DType::F16),
            _ => None,
        }
    }

    /// Stable numeric tag for on-disk headers.
    pub const fn tag(self) -> u32 {
        match self {
            DType::F32 => 0,
            DType::Bf16 => 1,
            DType::F16 => 2,
        }
    }

    /// Inverse of [`DType::tag`].
    pub fn from_tag(tag: u32) -> Option<DType> {
        match tag {
            0 => Some(DType::F32),
            1 => Some(DType::Bf16),
            2 => Some(DType::F16),
            _ => None,
        }
    }

    /// The nearest value representable at this width (round-to-nearest-
    /// even). `F32` is the identity.
    #[inline]
    pub fn quantize(self, v: f32) -> f32 {
        match self {
            DType::F32 => v,
            DType::Bf16 => bf16_bits_to_f32(f32_to_bf16_bits(v)),
            DType::F16 => f16_bits_to_f32(f32_to_f16_bits(v)),
        }
    }

    /// Quantizes every element in place. `F32` touches nothing.
    pub(crate) fn quantize_slice(self, data: &mut [f32]) {
        match self {
            DType::F32 => {}
            DType::Bf16 => {
                for v in data {
                    *v = bf16_bits_to_f32(f32_to_bf16_bits(*v));
                }
            }
            DType::F16 => {
                for v in data {
                    *v = f16_bits_to_f32(f32_to_f16_bits(*v));
                }
            }
        }
    }

    /// Encodes one value into 16 storage bits.
    ///
    /// # Panics
    ///
    /// Panics for `F32`, which has no 16-bit encoding.
    #[inline]
    pub fn encode16(self, v: f32) -> u16 {
        match self {
            DType::F32 => panic!("f32 has no 16-bit encoding"),
            DType::Bf16 => f32_to_bf16_bits(v),
            DType::F16 => f32_to_f16_bits(v),
        }
    }

    /// Decodes 16 storage bits back to f32.
    ///
    /// # Panics
    ///
    /// Panics for `F32`, which has no 16-bit encoding.
    #[inline]
    pub fn decode16(self, bits: u16) -> f32 {
        match self {
            DType::F32 => panic!("f32 has no 16-bit encoding"),
            DType::Bf16 => bf16_bits_to_f32(bits),
            DType::F16 => f16_bits_to_f32(bits),
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// f32 → bf16 with round-to-nearest-even. NaNs keep their sign and top
/// payload bits (with the quiet bit forced if truncation would otherwise
/// produce an infinity pattern).
#[inline]
pub fn f32_to_bf16_bits(v: f32) -> u16 {
    let x = v.to_bits();
    if v.is_nan() {
        let h = (x >> 16) as u16;
        return if h & 0x007f == 0 { h | 0x0040 } else { h };
    }
    let round = (x >> 16) & 1;
    (x.wrapping_add(0x7fff + round) >> 16) as u16
}

/// bf16 → f32 (exact: bf16 values are a subset of f32).
#[inline]
pub fn bf16_bits_to_f32(bits: u16) -> f32 {
    f32::from_bits(u32::from(bits) << 16)
}

/// f32 → IEEE binary16 with round-to-nearest-even, including subnormal
/// and overflow-to-infinity handling.
#[inline]
pub fn f32_to_f16_bits(v: f32) -> u16 {
    let x = v.to_bits();
    let sign = ((x >> 16) & 0x8000) as u16;
    let exp = ((x >> 23) & 0xff) as i32;
    let man = x & 0x007f_ffff;
    if exp == 0xff {
        if man == 0 {
            return sign | 0x7c00; // ±inf
        }
        let m = ((man >> 13) & 0x3ff) as u16;
        return sign | 0x7c00 | if m == 0 { 0x0200 } else { m };
    }
    let e = exp - 127;
    if e >= 16 {
        return sign | 0x7c00; // overflow → ±inf
    }
    if e >= -14 {
        // Normal half: drop 13 mantissa bits with RNE; a mantissa carry
        // correctly bumps the exponent (up to infinity).
        let mant = man >> 13;
        let rest = man & 0x1fff;
        let mut h = u32::from(sign) | (((e + 15) as u32) << 10) | mant;
        if rest > 0x1000 || (rest == 0x1000 && (mant & 1) == 1) {
            h += 1;
        }
        return h as u16;
    }
    if e < -25 {
        return sign; // below half the smallest subnormal → ±0
    }
    // Subnormal half: shift the implicit-1 mantissa into place with RNE.
    let full = man | 0x0080_0000;
    let shift = (13 + (-14 - e)) as u32;
    let mant = full >> shift;
    let rest = full & ((1u32 << shift) - 1);
    let half = 1u32 << (shift - 1);
    let mut h = u32::from(sign) | mant;
    if rest > half || (rest == half && (mant & 1) == 1) {
        h += 1;
    }
    h as u16
}

/// IEEE binary16 → f32 (exact: every half value is representable).
#[inline]
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = u32::from(bits & 0x8000) << 16;
    let exp = (bits >> 10) & 0x1f;
    let man = u32::from(bits & 0x03ff);
    match exp {
        0 => {
            if man == 0 {
                f32::from_bits(sign)
            } else {
                // Subnormal: value = man × 2⁻²⁴, exact in f32.
                const TWO_NEG_24: f32 = 5.960_464_5e-8;
                let v = man as f32 * TWO_NEG_24;
                if sign != 0 {
                    -v
                } else {
                    v
                }
            }
        }
        0x1f => f32::from_bits(sign | 0x7f80_0000 | (man << 13)),
        _ => f32::from_bits(sign | ((u32::from(exp) + 112) << 23) | (man << 13)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_names_tags_round_trip() {
        for d in [DType::F32, DType::Bf16, DType::F16] {
            assert_eq!(DType::parse(d.name()), Some(d));
            assert_eq!(DType::from_tag(d.tag()), Some(d));
        }
        assert_eq!(DType::F32.bytes_per_value(), 4);
        assert_eq!(DType::Bf16.bytes_per_value(), 2);
        assert_eq!(DType::F16.bytes_per_value(), 2);
        assert_eq!(DType::parse("f64"), None);
        assert_eq!(DType::from_tag(9), None);
    }

    /// Every one of the 65536 bf16 bit patterns must survive
    /// decode → encode unchanged: stored values are exactly
    /// representable, so re-encoding them is the identity.
    #[test]
    fn bf16_round_trip_is_exact_on_all_patterns() {
        for bits in 0..=u16::MAX {
            let v = bf16_bits_to_f32(bits);
            assert_eq!(
                f32_to_bf16_bits(v),
                bits,
                "bf16 pattern {bits:#06x} (value {v}) did not round-trip"
            );
        }
    }

    /// Same exhaustive round-trip for binary16.
    #[test]
    fn f16_round_trip_is_exact_on_all_patterns() {
        for bits in 0..=u16::MAX {
            let v = f16_bits_to_f32(bits);
            assert_eq!(
                f32_to_f16_bits(v),
                bits,
                "f16 pattern {bits:#06x} (value {v}) did not round-trip"
            );
        }
    }

    #[test]
    fn f16_known_values() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // largest normal half
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00); // rounds to +inf
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xfc00);
        // Smallest subnormal and half of it (ties-to-even → 0).
        assert_eq!(f16_bits_to_f32(0x0001), 5.960_464_5e-8);
        assert_eq!(f32_to_f16_bits(5.960_464_5e-8), 0x0001);
        assert_eq!(f32_to_f16_bits(2.980_232_2e-8), 0x0000);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn bf16_known_values() {
        assert_eq!(f32_to_bf16_bits(0.0), 0x0000);
        assert_eq!(f32_to_bf16_bits(1.0), 0x3f80);
        assert_eq!(f32_to_bf16_bits(f32::INFINITY), 0x7f80);
        // 1.0039062 is exactly between 1.0 and the next bf16 (1.0078125):
        // ties to even → 1.0.
        assert_eq!(f32_to_bf16_bits(1.003_906_2), 0x3f80);
        // Just above the tie rounds up.
        assert_eq!(f32_to_bf16_bits(1.004), 0x3f81);
        // Huge finite f32 overflows to bf16 infinity via the carry.
        assert_eq!(f32_to_bf16_bits(f32::MAX), 0x7f80);
        assert!(bf16_bits_to_f32(f32_to_bf16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn quantize_is_idempotent() {
        let values = [0.0f32, -1.5, 3.375, 1e-3, 1e4, -2.7e-5, 123.456];
        for d in [DType::F32, DType::Bf16, DType::F16] {
            for &v in &values {
                let q = d.quantize(v);
                assert_eq!(
                    q.to_bits(),
                    d.quantize(q).to_bits(),
                    "{d} quantize not idempotent at {v}"
                );
            }
        }
        let mut data = values.to_vec();
        DType::Bf16.quantize_slice(&mut data);
        for (q, &v) in data.iter().zip(&values) {
            assert_eq!(q.to_bits(), DType::Bf16.quantize(v).to_bits());
        }
    }

    #[test]
    fn quantization_error_is_bounded() {
        // bf16 keeps 8 significand bits → relative error ≤ 2⁻⁸; f16 keeps
        // 11 → ≤ 2⁻¹¹ (for values in normal range).
        let mut v = 0.001f32;
        while v < 1e4 {
            let b = DType::Bf16.quantize(v);
            assert!((b - v).abs() / v <= 1.0 / 256.0, "bf16 error at {v}: {b}");
            let h = DType::F16.quantize(v);
            assert!((h - v).abs() / v <= 1.0 / 2048.0, "f16 error at {v}: {h}");
            v *= 1.7;
        }
    }
}
