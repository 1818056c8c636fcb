//! Sequential container.

use crate::layer::{BackStep, Layer, Mode, DX_ONLY_ROUTE};
use crate::layers::fused::{self, FusedRun};
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
///
/// On [`Layer::forward_dx_only`] each `BatchNorm2d → ReLU →
/// MaxPool2d(2, 2)` run of children runs as one fused pass (found once,
/// after the last change to the children; see `layers::fused`).
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// The fused runs, each with its cache slot; `None` until the first
    /// dX-only forward after a change to the children.
    runs: Option<Vec<FusedRun>>,
    /// Whether the last forward took the dX-only route.
    dx_only: bool,
}

impl Sequential {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Appends a layer, returning `self` for chaining.
    pub fn push(mut self, layer: Box<dyn Layer>) -> Self {
        self.add(layer);
        self
    }

    /// Appends a layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
        self.runs = None;
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

    /// Mutable access to children. Drops the fused runs of the dX-only
    /// route with their caches: a child may be replaced.
    pub fn children_mut(&mut self) -> &mut [Box<dyn Layer>] {
        (self.runs, self.dx_only) = (None, false);
        &mut self.layers
    }

    /// Panics unless the last forward cached what a parameter backward
    /// reads.
    fn check_full_route(&self) {
        assert!(!self.dx_only, "{DX_ONLY_ROUTE}");
    }
}

/// Runs `step` through `layers` in reverse, borrowing `grad_out` for the
/// last one (and returning it as is when there are none).
fn backprop<'g>(
    layers: &mut [Box<dyn Layer>],
    grad_out: &'g Tensor,
    step: BackStep,
) -> Cow<'g, Tensor> {
    let mut g = Cow::Borrowed(grad_out);
    for l in layers.iter_mut().rev() {
        g = Cow::Owned(step(l.as_mut(), &g));
    }
    g
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Sequential {
            layers: self.layers.clone(),
            runs: self.runs.clone(),
            dx_only: self.dx_only,
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
        // Only one route's caches are held at a time: a training step
        // after an attack pass peaks no higher than before the fusion.
        for run in self.runs.iter_mut().flatten() {
            run.clear_cache();
        }
        self.dx_only = false;
        cur.into_owned()
    }

    /// Every child's [`Layer::forward_dx_only`], except that each fused
    /// run replaces its three children's forwards.
    fn forward_dx_only(&mut self, x: &Tensor) -> Tensor {
        let runs = self
            .runs
            .get_or_insert_with(|| fused::find_runs(&self.layers));
        let mut runs = runs.iter_mut().peekable();
        let mut cur = Cow::Borrowed(x);
        let mut i = 0;
        while i < self.layers.len() {
            cur = Cow::Owned(match runs.next_if(|r| r.at == i) {
                Some(run) => {
                    i += fused::LEN;
                    run.forward(self.layers[run.at].as_ref(), &cur)
                }
                None => {
                    i += 1;
                    self.layers[i - 1].forward_dx_only(&cur)
                }
            });
        }
        self.dx_only = true;
        cur.into_owned()
    }

    /// Every child's [`Layer::backward_input`], except that after a
    /// dX-only forward each fused run stands in for its three children.
    fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        let runs = match &self.runs {
            Some(runs) if self.dx_only => &runs[..],
            _ => &[],
        };
        let mut runs = runs.iter().rev().peekable();
        let mut g = Cow::Borrowed(grad_out);
        let mut i = self.layers.len();
        while i > 0 {
            g = Cow::Owned(match runs.next_if(|r| r.at + fused::LEN == i) {
                Some(run) => {
                    i = run.at;
                    run.backward_input(&g)
                }
                None => {
                    i -= 1;
                    self.layers[i].backward_input(&g)
                }
            });
        }
        g.into_owned()
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.check_full_route();
        backprop(&mut self.layers, grad_out, |l, g| l.backward(g)).into_owned()
    }

    /// [`Layer::backward`] through every child but the first, whose
    /// [`Layer::backward_params`] ends the pass.
    fn backward_params(&mut self, grad_out: &Tensor) {
        self.check_full_route();
        if let Some((first, rest)) = self.layers.split_first_mut() {
            first.backward_params(&backprop(rest, grad_out, |l, g| l.backward(g)));
        }
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

    fn running_stats(&self) -> Vec<(&Tensor, &Tensor)> {
        self.layers.iter().flat_map(|l| l.running_stats()).collect()
    }

    fn running_stats_mut(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.running_stats_mut())
            .collect()
    }

    fn clear_cache(&mut self) {
        for l in &mut self.layers {
            l.clear_cache();
        }
        for run in self.runs.iter_mut().flatten() {
            run.clear_cache();
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
    use crate::{BasicBlock, BatchNorm2d, Conv2d};

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

    /// Running statistics walk the tree like `params`: child by child and
    /// into nested composites; a write through `running_stats_mut` reads
    /// back in the same order.
    #[test]
    fn running_stats_walk_like_params() {
        let mut rng = fp_tensor::seeded_rng(3);
        let mut seq = Sequential::new()
            .push(Box::new(BasicBlock::new("b", 2, 4, 2, 0, 1, &mut rng)))
            .push(Box::new(
                Sequential::new()
                    .push(Box::new(Conv2d::new(
                        "c", 4, 3, 1, 1, 0, false, 1, 1, &mut rng,
                    )))
                    .push(Box::new(BatchNorm2d::new("bn", 3, 1))),
            ));
        let gammas: Vec<&str> = seq
            .params()
            .into_iter()
            .map(|p| p.name())
            .filter(|n| n.ends_with(".gamma"))
            .collect();
        assert_eq!(
            gammas,
            ["b.bn1.gamma", "b.bn2.gamma", "b.downbn.gamma", "bn.gamma"]
        );
        for (i, (m, v)) in seq.running_stats_mut().into_iter().enumerate() {
            *m = Tensor::full(m.shape(), i as f32);
            *v = Tensor::full(v.shape(), 1.0 + i as f32);
        }
        let got: Vec<(usize, f32, f32)> = seq
            .running_stats()
            .iter()
            .map(|(m, v)| (m.numel(), m.data()[0], v.data()[0]))
            .collect();
        assert_eq!(
            got,
            [(4, 0.0, 1.0), (4, 1.0, 2.0), (4, 2.0, 3.0), (3, 3.0, 4.0)]
        );
    }
}
