//! Weight initialization.

use fp_tensor::{NormalSampler, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Kaiming (He) normal initialization: `N(0, sqrt(2 / fan_in))`.
///
/// `fan_in` is the number of input connections per output unit
/// (`c_in·k²` for convolutions, `d_in` for linear layers).
pub fn kaiming_normal<R: Rng + ?Sized>(shape: &[usize], fan_in: usize, rng: &mut R) -> Tensor {
    assert!(fan_in > 0, "fan_in must be positive");
    let std = (2.0 / fan_in as f32).sqrt();
    let mut sampler = NormalSampler::new();
    let data = (0..fp_tensor::numel(shape))
        .map(|_| sampler.sample(rng) * std)
        .collect();
    Tensor::from_vec(data, shape)
}

/// Kaiming uniform initialization: `U(-b, b)` with `b = sqrt(6 / fan_in)`.
pub fn kaiming_uniform(shape: &[usize], fan_in: usize, rng: &mut StdRng) -> Tensor {
    assert!(fan_in > 0, "fan_in must be positive");
    let bound = (6.0 / fan_in as f32).sqrt();
    Tensor::rand_uniform(shape, -bound, bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaiming_normal_std_scales_with_fan_in() {
        let mut rng = fp_tensor::seeded_rng(3);
        let t = kaiming_normal(&[20_000], 8, &mut rng);
        let std = t.map(|x| x * x).mean().sqrt();
        let expect = (2.0f32 / 8.0).sqrt();
        assert!((std - expect).abs() < 0.02, "std {std} vs {expect}");
    }

    #[test]
    fn kaiming_uniform_respects_bound() {
        let mut rng = fp_tensor::seeded_rng(4);
        let t = kaiming_uniform(&[1000], 6, &mut rng);
        let bound = 1.0f32;
        assert!(t.norm_linf() <= bound);
        assert!(t.norm_linf() > bound * 0.9, "should fill the range");
    }

    #[test]
    #[should_panic(expected = "fan_in must be positive")]
    fn zero_fan_in_rejected() {
        let mut rng = fp_tensor::seeded_rng(0);
        kaiming_normal(&[4], 0, &mut rng);
    }
}
