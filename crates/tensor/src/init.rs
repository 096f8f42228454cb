//! Deterministic random tensor initializers.
//!
//! All initializers take an explicit [`rand::Rng`] so experiments are
//! reproducible; the rest of the workspace uses seeded
//! [`rand_pcg::Pcg64Mcg`] generators.

use rand::Rng;

use crate::Tensor;

/// Standard-normal random tensor (Box–Muller on the provided RNG).
pub fn randn(shape: &[usize], rng: &mut impl Rng) -> Tensor {
    let len: usize = shape.iter().product();
    let mut data = Vec::with_capacity(len);
    while data.len() < len {
        // Box–Muller transform: two uniforms -> two independent normals.
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * theta.cos());
        if data.len() < len {
            data.push(r * theta.sin());
        }
    }
    Tensor::from_vec(data, shape).expect("randn output shape")
}

/// Uniform random tensor over `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub(crate) fn uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
    assert!(lo < hi, "uniform requires lo < hi, got [{lo}, {hi})");
    let len: usize = shape.iter().product();
    let data = (0..len).map(|_| rng.gen_range(lo..hi)).collect();
    Tensor::from_vec(data, shape).expect("uniform output shape")
}

/// Glorot/Xavier uniform initialization for a `[fan_in, fan_out]` weight.
pub fn glorot_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(&[fan_in, fan_out], -limit, limit, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_pcg::Pcg64Mcg;

    #[test]
    fn randn_has_roughly_unit_variance() {
        let mut rng = Pcg64Mcg::seed_from_u64(7);
        let t = randn(&[10_000], &mut rng);
        let mean = t.sum_all() / t.len() as f32;
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn randn_odd_length() {
        let mut rng = Pcg64Mcg::seed_from_u64(1);
        assert_eq!(randn(&[3], &mut rng).len(), 3);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Pcg64Mcg::seed_from_u64(3);
        let t = uniform(&[1000], -0.5, 0.25, &mut rng);
        assert!(t.data().iter().all(|&v| (-0.5..0.25).contains(&v)));
    }

    #[test]
    fn glorot_limit_shrinks_with_fan() {
        let mut rng = Pcg64Mcg::seed_from_u64(5);
        let small = glorot_uniform(4, 4, &mut rng);
        let large = glorot_uniform(1024, 1024, &mut rng);
        assert!(small.max_abs() > large.max_abs());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = randn(&[16], &mut Pcg64Mcg::seed_from_u64(42));
        let b = randn(&[16], &mut Pcg64Mcg::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
