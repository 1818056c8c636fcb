//! Rectified linear unit.

use super::recycle;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::spec::{LayerKind, LayerSpec};
use fp_tensor::Tensor;

/// Elementwise `max(0, x)`.
///
/// Caches the activation mask for backward; carries a channel-group label
/// so spec walks stay aligned.
#[derive(Debug, Clone, Default)]
pub struct ReLU {
    group: usize,
    mask: Option<Vec<bool>>,
}

impl ReLU {
    /// Creates a ReLU in channel group `group`.
    pub fn new(group: usize) -> Self {
        ReLU { group, mask: None }
    }
}

impl Layer for ReLU {
    /// One pass per output: the mask into the previous forward's
    /// recycled buffer, then `max(v, 0)`.
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let mut mask = recycle(self.mask.take(), x.numel());
        mask.extend(x.data().iter().map(|&v| v > 0.0));
        self.mask = Some(mask);
        x.map(|v| v.max(0.0))
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward called before forward");
        assert_eq!(mask.len(), grad_out.numel(), "grad size mismatch");
        let data = grad_out
            .data()
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad_out.shape())
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::same_group(LayerKind::Relu, self.group)
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
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = ReLU::new(0);
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(r.forward(&x, Mode::Eval).data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = ReLU::new(0);
        let x = Tensor::from_vec(vec![-1.0, 3.0], &[2]);
        r.forward(&x, Mode::Train);
        let dx = r.backward(&Tensor::from_vec(vec![5.0, 7.0], &[2]));
        assert_eq!(dx.data(), &[0.0, 7.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = fp_tensor::seeded_rng(2);
        let mut r = ReLU::new(0);
        check_layer_gradients(&mut r, &[3, 7], &mut rng);
    }
}
