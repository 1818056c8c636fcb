//! ResNet basic block.

use crate::layer::{BackStep, Layer, Mode};
use crate::layers::bn::BatchNorm2d;
use crate::layers::conv::Conv2d;
use crate::param::Param;
use crate::spec::{LayerKind, LayerSpec};
use fp_tensor::Tensor;
use rand::Rng;

/// The ResNet-18/34 basic block: `relu(bn2(conv2(relu(bn1(conv1(x))))) + s(x))`,
/// where `s` is the identity (same shape) or a strided 1×1 conv + BN
/// projection.
///
/// This is the indivisible "atom" for ResNet in the model partitioner
/// (paper §6.1: "the atom of ResNet is a residual block").
pub struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: crate::layers::relu::ReLU,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    in_group: usize,
    out_group: usize,
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
        let conv1 = Conv2d::new(
            &format!("{name}.conv1"),
            c_in,
            c_out,
            3,
            stride,
            1,
            false,
            in_group,
            out_group,
            rng,
        );
        let bn1 = BatchNorm2d::new(&format!("{name}.bn1"), c_out, out_group);
        let conv2 = Conv2d::new(
            &format!("{name}.conv2"),
            c_out,
            c_out,
            3,
            1,
            1,
            false,
            out_group,
            out_group,
            rng,
        );
        let bn2 = BatchNorm2d::new(&format!("{name}.bn2"), c_out, out_group);
        let shortcut = if stride != 1 || c_in != c_out {
            let sc = Conv2d::new(
                &format!("{name}.down"),
                c_in,
                c_out,
                1,
                stride,
                0,
                false,
                in_group,
                out_group,
                rng,
            );
            let sbn = BatchNorm2d::new(&format!("{name}.downbn"), c_out, out_group);
            Some((sc, sbn))
        } else {
            None
        };
        BasicBlock {
            conv1,
            bn1,
            relu1: crate::layers::relu::ReLU::new(out_group),
            conv2,
            bn2,
            shortcut,
            in_group,
            out_group,
            sum_mask: None,
        }
    }

    /// The block's chain rule, written once; `step` back-propagates one
    /// child with or without parameter-gradient accumulation.
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
        // Main path.
        let g = step(&mut self.bn2, &g_sum);
        let g = step(&mut self.conv2, &g);
        let g = step(&mut self.relu1, &g);
        let g = step(&mut self.bn1, &g);
        let mut dx = step(&mut self.conv1, &g);
        // Shortcut path.
        match &mut self.shortcut {
            Some((sc, sbn)) => {
                let gs = step(sbn, &g_sum);
                let gs = step(sc, &gs);
                dx.axpy(1.0, &gs);
            }
            None => dx.axpy(1.0, &g_sum),
        }
        dx
    }
}

impl Clone for BasicBlock {
    fn clone(&self) -> Self {
        BasicBlock {
            conv1: self.conv1.clone(),
            bn1: self.bn1.clone(),
            relu1: self.relu1.clone(),
            conv2: self.conv2.clone(),
            bn2: self.bn2.clone(),
            shortcut: self.shortcut.clone(),
            in_group: self.in_group,
            out_group: self.out_group,
            sum_mask: self.sum_mask.clone(),
        }
    }
}

impl std::fmt::Debug for BasicBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BasicBlock")
            .field("projection", &self.shortcut.is_some())
            .finish()
    }
}

impl Layer for BasicBlock {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let h = self.conv1.forward(x, mode);
        let h = self.bn1.forward(&h, mode);
        let h = self.relu1.forward(&h, mode);
        let h = self.conv2.forward(&h, mode);
        let h = self.bn2.forward(&h, mode);
        let s = match &mut self.shortcut {
            Some((sc, sbn)) => {
                let s = sc.forward(x, mode);
                sbn.forward(&s, mode)
            }
            None => x.clone(),
        };
        let sum = h.add(&s);
        self.sum_mask = Some(sum.data().iter().map(|&v| v > 0.0).collect());
        sum.map(|v| v.max(0.0))
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        self.backprop(grad_out, |l, g| l.backward_input(g))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backprop(grad_out, |l, g| l.backward(g))
    }

    fn params(&self) -> Vec<&Param> {
        let mut v: Vec<&Param> = Vec::new();
        v.extend(self.conv1.params());
        v.extend(self.bn1.params());
        v.extend(self.conv2.params());
        v.extend(self.bn2.params());
        if let Some((sc, sbn)) = &self.shortcut {
            v.extend(sc.params());
            v.extend(sbn.params());
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v: Vec<&mut Param> = Vec::new();
        v.extend(self.conv1.params_mut());
        v.extend(self.bn1.params_mut());
        v.extend(self.conv2.params_mut());
        v.extend(self.bn2.params_mut());
        if let Some((sc, sbn)) = &mut self.shortcut {
            v.extend(sc.params_mut());
            v.extend(sbn.params_mut());
        }
        v
    }

    fn spec(&self) -> LayerSpec {
        let block = vec![
            self.conv1.spec(),
            self.bn1.spec(),
            self.relu1.spec(),
            self.conv2.spec(),
            self.bn2.spec(),
        ];
        let shortcut = match &self.shortcut {
            Some((sc, sbn)) => vec![sc.spec(), sbn.spec()],
            None => Vec::new(),
        };
        LayerSpec::new(
            LayerKind::Residual { block, shortcut },
            self.in_group,
            self.out_group,
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn collect_inner_bn(&self, out: &mut Vec<(Tensor, Tensor)>) {
        self.bn1.collect_inner_bn(out);
        self.bn2.collect_inner_bn(out);
        if let Some((_, sbn)) = &self.shortcut {
            sbn.collect_inner_bn(out);
        }
    }

    fn apply_inner_bn(&mut self, stats: &[(Tensor, Tensor)]) {
        let want = if self.shortcut.is_some() { 3 } else { 2 };
        assert_eq!(stats.len(), want, "bn stats count mismatch");
        self.bn1.apply_inner_bn(&stats[0..1]);
        self.bn2.apply_inner_bn(&stats[1..2]);
        if let Some((_, sbn)) = &mut self.shortcut {
            sbn.apply_inner_bn(&stats[2..3]);
        }
    }

    fn clear_cache(&mut self) {
        self.conv1.clear_cache();
        self.bn1.clear_cache();
        self.relu1.clear_cache();
        self.conv2.clear_cache();
        self.bn2.clear_cache();
        if let Some((sc, sbn)) = &mut self.shortcut {
            sc.clear_cache();
            sbn.clear_cache();
        }
        self.sum_mask = None;
    }

    fn set_backend(&mut self, backend: &fp_tensor::BackendHandle) {
        self.conv1.set_backend(backend);
        self.conv2.set_backend(backend);
        if let Some((sc, _)) = &mut self.shortcut {
            sc.set_backend(backend);
        }
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
        assert!(b.shortcut.is_none(), "same shape → identity shortcut");
    }

    #[test]
    fn projection_block_shape() {
        let mut rng = fp_tensor::seeded_rng(1);
        let mut b = BasicBlock::new("b", 4, 8, 2, 1, 2, &mut rng);
        let x = Tensor::rand_uniform(&[2, 4, 6, 6], -1.0, 1.0, &mut rng);
        assert_eq!(b.forward(&x, Mode::Eval).shape(), &[2, 8, 3, 3]);
        assert!(b.shortcut.is_some(), "downsampling → projection shortcut");
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
