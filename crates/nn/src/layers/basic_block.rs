//! ResNet basic block.

use crate::layer::{BackStep, Layer, Mode};
use crate::layers::bn::BatchNorm2d;
use crate::layers::conv::Conv2d;
use crate::layers::relu::ReLU;
use crate::layers::sequential::Sequential;
use crate::param::Param;
use crate::spec::{LayerKind, LayerSpec};
use fp_tensor::Tensor;
use rand::Rng;

/// The ResNet-18/34 basic block: `relu(block(x) + shortcut(x))`, where
/// `block` is `conv1 → bn1 → relu → conv2 → bn2` and `shortcut` is empty
/// (the identity, same shape) or a strided 1×1 `down` conv + `downbn`
/// projection.
///
/// This is the indivisible "atom" for ResNet in the model partitioner
/// (paper §6.1: "the atom of ResNet is a residual block").
#[derive(Debug, Clone)]
pub struct BasicBlock {
    block: Sequential,
    shortcut: Sequential,
    sum_mask: Option<Vec<bool>>,
}

impl BasicBlock {
    /// Creates a basic block mapping `c_in` → `c_out` channels with the
    /// given stride. A projection shortcut is added automatically when the
    /// stride is not 1 or the channel counts differ.
    pub fn new<R: Rng + ?Sized>(
        name: &str,
        c_in: usize,
        c_out: usize,
        stride: usize,
        in_group: usize,
        out_group: usize,
        rng: &mut R,
    ) -> Self {
        let conv = |layer: &str, c_in, k, stride, in_group, rng: &mut R| {
            let name = format!("{name}.{layer}");
            let pad = k / 2;
            Box::new(Conv2d::new(
                &name, c_in, c_out, k, stride, pad, false, in_group, out_group, rng,
            ))
        };
        let bn = |layer: &str| {
            Box::new(BatchNorm2d::new(
                &format!("{name}.{layer}"),
                c_out,
                out_group,
            ))
        };
        let block = Sequential::new()
            .push(conv("conv1", c_in, 3, stride, in_group, rng))
            .push(bn("bn1"))
            .push(Box::new(ReLU::new(out_group)))
            .push(conv("conv2", c_out, 3, 1, out_group, rng))
            .push(bn("bn2"));
        let mut shortcut = Sequential::new();
        if stride != 1 || c_in != c_out {
            shortcut.add(conv("down", c_in, 1, stride, in_group, rng));
            shortcut.add(bn("downbn"));
        }
        BasicBlock {
            block,
            shortcut,
            sum_mask: None,
        }
    }

    /// The block's forward, written once; `step` runs one branch.
    fn forward_with(
        &mut self,
        x: &Tensor,
        step: impl Fn(&mut Sequential, &Tensor) -> Tensor,
    ) -> Tensor {
        let sum = step(&mut self.block, x).add(&step(&mut self.shortcut, x));
        self.sum_mask = Some(sum.data().iter().map(|&v| v > 0.0).collect());
        sum.map(|v| v.max(0.0))
    }

    /// The block's chain rule, written once; `step` back-propagates one
    /// branch with or without parameter-gradient accumulation.
    fn backprop(&mut self, grad_out: &Tensor, step: BackStep) -> Tensor {
        let mask = self
            .sum_mask
            .as_ref()
            .expect("backward called before forward");
        // Through the final ReLU.
        let data: Vec<f32> = grad_out
            .data()
            .iter()
            .zip(mask.iter())
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        let g_sum = Tensor::from_vec(data, grad_out.shape());
        let mut dx = step(&mut self.block, &g_sum);
        dx.axpy(1.0, &step(&mut self.shortcut, &g_sum));
        dx
    }
}

impl Layer for BasicBlock {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_with(x, |l, x| l.forward(x, mode))
    }

    fn forward_dx_only(&mut self, x: &Tensor) -> Tensor {
        self.forward_with(x, |l, x| l.forward_dx_only(x))
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        self.backprop(grad_out, |l, g| l.backward_input(g))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backprop(grad_out, |l, g| l.backward(g))
    }

    fn params(&self) -> Vec<&Param> {
        [&self.block, &self.shortcut]
            .into_iter()
            .flat_map(Layer::params)
            .collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        [&mut self.block, &mut self.shortcut]
            .into_iter()
            .flat_map(Layer::params_mut)
            .collect()
    }

    fn spec(&self) -> LayerSpec {
        let block = self.block.child_specs();
        let (in_group, out_group) = (block[0].in_group, block[block.len() - 1].out_group);
        let shortcut = self.shortcut.child_specs();
        LayerSpec::new(LayerKind::Residual { block, shortcut }, in_group, out_group)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn running_stats(&self) -> Vec<(&Tensor, &Tensor)> {
        [&self.block, &self.shortcut]
            .into_iter()
            .flat_map(Layer::running_stats)
            .collect()
    }

    fn running_stats_mut(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        [&mut self.block, &mut self.shortcut]
            .into_iter()
            .flat_map(Layer::running_stats_mut)
            .collect()
    }

    fn clear_cache(&mut self) {
        self.block.clear_cache();
        self.shortcut.clear_cache();
        self.sum_mask = None;
    }

    fn set_backend(&mut self, backend: &fp_tensor::BackendHandle) {
        self.block.set_backend(backend);
        self.shortcut.set_backend(backend);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradients, check_layer_input_gradients};

    #[test]
    fn identity_block_shape() {
        let mut rng = fp_tensor::seeded_rng(0);
        let mut b = BasicBlock::new("b", 4, 4, 1, 1, 1, &mut rng);
        let x = Tensor::rand_uniform(&[2, 4, 6, 6], -1.0, 1.0, &mut rng);
        assert_eq!(b.forward(&x, Mode::Eval).shape(), &[2, 4, 6, 6]);
        assert!(b.shortcut.is_empty(), "same shape → identity shortcut");
    }

    #[test]
    fn projection_block_shape() {
        let mut rng = fp_tensor::seeded_rng(1);
        let mut b = BasicBlock::new("b", 4, 8, 2, 1, 2, &mut rng);
        let x = Tensor::rand_uniform(&[2, 4, 6, 6], -1.0, 1.0, &mut rng);
        assert_eq!(b.forward(&x, Mode::Eval).shape(), &[2, 8, 3, 3]);
        assert!(!b.shortcut.is_empty(), "downsampling → projection shortcut");
    }

    #[test]
    fn gradients_identity_shortcut() {
        let mut rng = fp_tensor::seeded_rng(32);
        let mut b = BasicBlock::new("b", 3, 3, 1, 1, 1, &mut rng);
        check_layer_gradients(&mut b, &[2, 3, 4, 4], &mut rng);
    }

    #[test]
    fn gradients_projection_shortcut() {
        let mut rng = fp_tensor::seeded_rng(32);
        let mut b = BasicBlock::new("b", 2, 4, 2, 1, 2, &mut rng);
        check_layer_gradients(&mut b, &[2, 2, 4, 4], &mut rng);
    }

    #[test]
    fn input_gradient_only_route_matches_finite_differences() {
        let mut rng = fp_tensor::seeded_rng(36);
        let mut identity = BasicBlock::new("b", 3, 3, 1, 1, 1, &mut rng);
        check_layer_input_gradients(&mut identity, &[2, 3, 4, 4], &mut rng);
        let mut projection = BasicBlock::new("b", 2, 4, 2, 1, 2, &mut rng);
        check_layer_input_gradients(&mut projection, &[2, 2, 4, 4], &mut rng);
    }

    #[test]
    fn param_count_matches_spec() {
        let mut rng = fp_tensor::seeded_rng(3);
        let b = BasicBlock::new("b", 4, 8, 2, 1, 2, &mut rng);
        let from_layers: usize = b.params().iter().map(|p| p.numel()).sum();
        assert_eq!(from_layers, b.spec().param_count());
    }
}
