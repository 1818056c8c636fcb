//! Dropout layer.

use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::spec::{LayerKind, LayerSpec};
use fp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inverted dropout: in `Train` mode each element is zeroed with
/// probability `p` and survivors are scaled by `1/(1-p)`; `Eval` mode is
/// the identity.
///
/// The layer owns a seeded RNG so training runs stay deterministic even
/// when models are cloned across federated clients.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    group: usize,
    rng: StdRng,
    mask: Option<Vec<f32>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    pub fn new(p: f32, group: usize, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        Dropout {
            p,
            group,
            rng: StdRng::seed_from_u64(seed),
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        match mode {
            Mode::Eval => {
                self.mask = None;
                x.clone()
            }
            Mode::Train => {
                if self.p == 0.0 {
                    self.mask = None;
                    return x.clone();
                }
                let keep = 1.0 - self.p;
                let mask: Vec<f32> = (0..x.numel())
                    .map(|_| {
                        if self.rng.gen::<f32>() < self.p {
                            0.0
                        } else {
                            1.0 / keep
                        }
                    })
                    .collect();
                let data = x
                    .data()
                    .iter()
                    .zip(mask.iter())
                    .map(|(&v, &m)| v * m)
                    .collect();
                self.mask = Some(mask);
                Tensor::from_vec(data, x.shape())
            }
        }
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.mask {
            None => grad_out.clone(),
            Some(mask) => {
                assert_eq!(mask.len(), grad_out.numel(), "grad size mismatch");
                let data = grad_out
                    .data()
                    .iter()
                    .zip(mask.iter())
                    .map(|(&g, &m)| g * m)
                    .collect();
                Tensor::from_vec(data, grad_out.shape())
            }
        }
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::same_group(LayerKind::Dropout { p: self.p }, self.group)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.mask = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_identity() {
        let mut d = Dropout::new(0.5, 0, 7);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        assert_eq!(d.forward(&x, Mode::Eval), x);
    }

    #[test]
    fn train_preserves_expectation() {
        let mut d = Dropout::new(0.3, 0, 42);
        let x = Tensor::ones(&[20_000]);
        let y = d.forward(&x, Mode::Train);
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 0, 1);
        let x = Tensor::ones(&[64]);
        let y = d.forward(&x, Mode::Train);
        let dx = d.backward(&Tensor::ones(&[64]));
        // dx must equal y (both are mask·1).
        assert_eq!(dx.data(), y.data());
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn rejects_bad_probability() {
        Dropout::new(1.0, 0, 0);
    }
}
