//! Flatten layer.

use crate::layer::{Layer, Mode};
use crate::param::Param;
use crate::spec::{LayerKind, LayerSpec};
use fp_tensor::Tensor;

/// Flattens `[batch, c, h, w]` (or any rank ≥ 2) to `[batch, features]`.
#[derive(Debug, Clone)]
pub struct Flatten {
    group: usize,
    in_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer in channel group `group`.
    pub fn new(group: usize) -> Self {
        Flatten {
            group,
            in_shape: None,
        }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        assert!(x.shape().len() >= 2, "flatten needs a batch dimension");
        let batch = x.shape()[0];
        let features: usize = x.shape()[1..].iter().product();
        self.in_shape = Some(x.shape().to_vec());
        x.reshaped(&[batch, features])
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .in_shape
            .as_ref()
            .expect("backward called before forward");
        grad_out.reshaped(shape)
    }

    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    fn spec(&self) -> LayerSpec {
        LayerSpec::same_group(LayerKind::Flatten, self.group)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn clear_cache(&mut self) {
        self.in_shape = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new(0);
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]);
        let y = f.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 12]);
        let dx = f.backward(&y);
        assert_eq!(dx, x);
    }
}
