//! Sequential container.

use crate::layer::{BackStep, Layer, Mode};
use crate::param::Param;
use crate::spec::{LayerKind, LayerSpec};
use fp_tensor::Tensor;
use std::borrow::Cow;

/// A sequence of layers applied in order.
///
/// `Sequential` itself implements [`Layer`], so atoms and residual branches
/// compose uniformly. Its `spec()` is only meaningful for single-layer
/// sequences (composite containers report their children through
/// [`Sequential::child_specs`]); the cascaded-model code always works with
/// per-child specs.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer, returning `self` for chaining.
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends a layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Specs of the child layers, in order.
    pub fn child_specs(&self) -> Vec<LayerSpec> {
        self.layers.iter().map(|l| l.spec()).collect()
    }

    /// Immutable access to children.
    pub fn children(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to children.
    pub fn children_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Runs `step` through the children in reverse, borrowing `grad_out`
    /// for the last layer.
    fn backprop(&mut self, grad_out: &Tensor, step: BackStep) -> Tensor {
        let mut g = Cow::Borrowed(grad_out);
        for l in self.layers.iter_mut().rev() {
            g = Cow::Owned(step(l.as_mut(), &g));
        }
        g.into_owned()
    }
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Sequential {
            layers: self.layers.clone(),
        }
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("len", &self.layers.len())
            .finish()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        // The first layer borrows the caller's tensor; only an empty
        // sequence has to copy it.
        let mut cur = Cow::Borrowed(x);
        for l in &mut self.layers {
            cur = Cow::Owned(l.forward(&cur, mode));
        }
        cur.into_owned()
    }

    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        self.backprop(grad_out, |l, g| l.backward_input(g))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backprop(grad_out, |l, g| l.backward(g))
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn spec(&self) -> LayerSpec {
        // A container has no single spec; expose a residual-style wrapper so
        // spec walks of composite layers remain possible.
        LayerSpec::new(
            LayerKind::Residual {
                block: self.child_specs(),
                shortcut: Vec::new(),
            },
            self.layers.first().map(|l| l.spec().in_group).unwrap_or(0),
            self.layers.last().map(|l| l.spec().out_group).unwrap_or(0),
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn bn_stats(&self) -> Option<(&Tensor, &Tensor)> {
        None
    }

    fn collect_inner_bn(&self, out: &mut Vec<(Tensor, Tensor)>) {
        for l in &self.layers {
            l.collect_inner_bn(out);
        }
    }

    fn apply_inner_bn(&mut self, stats: &[(Tensor, Tensor)]) {
        let mut idx = 0;
        for l in &mut self.layers {
            let n = l.bn_count();
            l.apply_inner_bn(&stats[idx..idx + n]);
            idx += n;
        }
        assert_eq!(idx, stats.len(), "bn stats count mismatch");
    }

    fn clear_cache(&mut self) {
        for l in &mut self.layers {
            l.clear_cache();
        }
    }

    fn set_backend(&mut self, backend: &fp_tensor::BackendHandle) {
        for l in &mut self.layers {
            l.set_backend(backend);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradients, check_layer_input_gradients};
    use crate::layers::linear::Linear;
    use crate::layers::relu::ReLU;

    #[test]
    fn forward_composes_in_order() {
        let mut rng = fp_tensor::seeded_rng(0);
        let mut l = Linear::new("fc", 2, 2, 1, 0, 1, &mut rng);
        l.params_mut()[0].set_value(Tensor::from_vec(vec![-1.0, 0.0, 0.0, -1.0], &[2, 2]));
        let mut seq = Sequential::new()
            .push(Box::new(l))
            .push(Box::new(ReLU::new(1)));
        let x = Tensor::from_vec(vec![1.0, -2.0], &[1, 2]);
        // Linear: [-1, 2]; ReLU: [0, 2].
        assert_eq!(seq.forward(&x, Mode::Eval).data(), &[0.0, 2.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = fp_tensor::seeded_rng(21);
        let mut seq = Sequential::new()
            .push(Box::new(Linear::new("a", 4, 6, 1, 0, 1, &mut rng)))
            .push(Box::new(ReLU::new(1)))
            .push(Box::new(Linear::new("b", 6, 3, 1, 1, 2, &mut rng)));
        check_layer_gradients(&mut seq, &[3, 4], &mut rng);
    }

    #[test]
    fn input_gradient_only_route_matches_finite_differences() {
        let mut rng = fp_tensor::seeded_rng(22);
        let mut seq = Sequential::new()
            .push(Box::new(Linear::new("a", 4, 6, 1, 0, 1, &mut rng)))
            .push(Box::new(ReLU::new(1)))
            .push(Box::new(Linear::new("b", 6, 3, 1, 1, 2, &mut rng)));
        check_layer_input_gradients(&mut seq, &[3, 4], &mut rng);
    }

    #[test]
    fn empty_sequence_is_the_identity() {
        let mut seq = Sequential::new();
        let x = Tensor::from_vec(vec![1.0, -2.0], &[1, 2]);
        assert_eq!(seq.forward(&x, Mode::Eval), x);
        assert_eq!(seq.backward(&x), x);
        assert_eq!(seq.backward_input(&x), x);
    }

    #[test]
    fn params_cover_all_children() {
        let mut rng = fp_tensor::seeded_rng(2);
        let seq = Sequential::new()
            .push(Box::new(Linear::new("a", 2, 3, 1, 0, 1, &mut rng)))
            .push(Box::new(Linear::new("b", 3, 2, 1, 1, 2, &mut rng)));
        assert_eq!(seq.params().len(), 4);
        assert_eq!(seq.params()[0].name(), "a.w");
        assert_eq!(seq.params()[3].name(), "b.b");
    }
}
