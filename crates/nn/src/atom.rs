//! The "atom": the indivisible unit of model partitioning.

use crate::layer::{Layer, Mode};
use crate::layers::sequential::Sequential;
use crate::param::Param;
use crate::spec::AtomSpec;
use fp_tensor::Tensor;

/// A named, indivisible group of layers.
///
/// Per paper §6.1, a backbone model is a plain cascade of atoms
/// `a₁ ∘ ⋯ ∘ a_L`: a single conv layer (with its activation and an optional
/// trailing pool) for VGG-style networks, a residual block for ResNets.
/// FedProphet's model partitioner groups consecutive atoms into modules; it
/// never splits an atom.
pub struct Atom {
    name: String,
    inner: Sequential,
}

impl Atom {
    /// Creates an atom from a layer sequence.
    pub fn new(name: impl Into<String>, inner: Sequential) -> Self {
        Atom {
            name: name.into(),
            inner,
        }
    }

    /// The atom's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Weight-free description (used by the partitioner and cost model).
    pub fn spec(&self) -> AtomSpec {
        AtomSpec::new(self.name.clone(), self.inner.child_specs())
    }

    /// Forward pass through the atom.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.inner.forward(x, mode)
    }

    /// Backward pass; accumulates parameter gradients and returns the
    /// gradient with respect to the atom input.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.inner.backward(grad_out)
    }

    /// Input-gradient-only backward pass (see [`Layer::backward_input`]):
    /// the same dX as [`Atom::backward`], no parameter gradient touched.
    pub fn backward_input(&mut self, grad_out: &Tensor) -> Tensor {
        self.inner.backward_input(grad_out)
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    /// Trainable parameters, mutable.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    /// Zeroes all gradients.
    pub fn zero_grad(&mut self) {
        for p in self.inner.params_mut() {
            p.zero_grad();
        }
    }

    /// Points every layer inside the atom at `backend`.
    pub fn set_backend(&mut self, backend: &fp_tensor::BackendHandle) {
        use crate::layer::Layer;
        self.inner.set_backend(backend);
    }

    /// Total trainable scalars.
    pub fn param_count(&self) -> usize {
        self.inner.params().iter().map(|p| p.numel()).sum()
    }

    /// Collects BN running statistics in traversal order.
    pub fn collect_bn_stats(&self, out: &mut Vec<(Tensor, Tensor)>) {
        self.inner.collect_inner_bn(out);
    }

    /// Applies BN running statistics in the same traversal order,
    /// advancing `idx` past the entries consumed.
    pub fn apply_bn_stats(&mut self, stats: &[(Tensor, Tensor)], idx: &mut usize) {
        let n = self.inner.bn_count();
        self.inner.apply_inner_bn(&stats[*idx..*idx + n]);
        *idx += n;
    }

    /// Frees cached activations.
    pub fn clear_cache(&mut self) {
        self.inner.clear_cache();
    }

    /// Underlying layer sequence.
    pub fn layers(&self) -> &Sequential {
        &self.inner
    }

    /// Underlying layer sequence, mutable.
    pub fn layers_mut(&mut self) -> &mut Sequential {
        &mut self.inner
    }
}

impl Clone for Atom {
    fn clone(&self) -> Self {
        Atom {
            name: self.name.clone(),
            inner: self.inner.clone(),
        }
    }
}

impl std::fmt::Debug for Atom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Atom")
            .field("name", &self.name)
            .field("layers", &self.inner.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::bn::BatchNorm2d;
    use crate::layers::conv::Conv2d;
    use crate::layers::relu::ReLU;

    fn test_atom() -> Atom {
        let mut rng = fp_tensor::seeded_rng(0);
        let seq = Sequential::new()
            .push(Box::new(Conv2d::new(
                "c", 2, 4, 3, 1, 1, false, 0, 1, &mut rng,
            )))
            .push(Box::new(BatchNorm2d::new("bn", 4, 1)))
            .push(Box::new(ReLU::new(1)));
        Atom::new("conv1", seq)
    }

    #[test]
    fn atom_spec_reflects_layers() {
        let a = test_atom();
        let spec = a.spec();
        assert_eq!(spec.name, "conv1");
        assert_eq!(spec.layers.len(), 3);
        assert_eq!(spec.param_count(), a.param_count());
    }

    #[test]
    fn forward_backward_shapes() {
        let mut a = test_atom();
        let x = Tensor::zeros(&[2, 2, 4, 4]);
        let y = a.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[2, 4, 4, 4]);
        let dx = a.backward(&Tensor::zeros(&[2, 4, 4, 4]));
        assert_eq!(dx.shape(), x.shape());
    }

    #[test]
    fn bn_stats_roundtrip_through_atom() {
        let mut a = test_atom();
        let mut stats = Vec::new();
        a.collect_bn_stats(&mut stats);
        assert_eq!(stats.len(), 1);
        let new_mean = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]);
        let new_var = Tensor::from_vec(vec![0.5, 0.5, 0.5, 0.5], &[4]);
        let mut idx = 0;
        a.apply_bn_stats(&[(new_mean.clone(), new_var.clone())], &mut idx);
        assert_eq!(idx, 1);
        let mut got = Vec::new();
        a.collect_bn_stats(&mut got);
        assert_eq!(got[0].0, new_mean);
        assert_eq!(got[0].1, new_var);
    }
}
