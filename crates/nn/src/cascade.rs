//! The cascaded atom model.

use crate::layer::{BackStep, Layer, Mode};
use crate::layers::sequential::Sequential;
use crate::param::Param;
use crate::spec::AtomSpec;
use fp_tensor::Tensor;
use std::borrow::Cow;

/// A backbone model expressed as a plain cascade of atoms
/// `a₁ ∘ a₂ ∘ ⋯ ∘ a_L`, the structure FedProphet's model partitioner
/// consumes (paper §6.1).
///
/// An atom is a named, indivisible [`Sequential`]: a single conv layer
/// (with its activation and an optional trailing pool) for VGG-style
/// networks, a residual block for ResNets. The partitioner groups
/// consecutive atoms into modules; it never splits an atom.
///
/// The final atom ends in the classifier, so a full forward pass produces
/// logits. Ranged forward/backward (`forward_range`, `backward_range`)
/// support cascade learning, where only a contiguous atom window is
/// trained at a time.
#[derive(Clone)]
pub struct CascadeModel {
    names: Vec<String>,
    atoms: Vec<Sequential>,
    input_shape: Vec<usize>,
    n_classes: usize,
}

impl CascadeModel {
    /// Assembles a model from named atoms.
    ///
    /// `input_shape` is the per-sample shape `[c, h, w]`; `n_classes` the
    /// logit count produced by the last atom.
    ///
    /// # Panics
    ///
    /// Panics if `atoms` is empty.
    pub fn new(atoms: Vec<(String, Sequential)>, input_shape: &[usize], n_classes: usize) -> Self {
        assert!(!atoms.is_empty(), "a cascade needs at least one atom");
        let (names, atoms) = atoms.into_iter().unzip();
        CascadeModel {
            names,
            atoms,
            input_shape: input_shape.to_vec(),
            n_classes,
        }
    }

    /// Number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Per-sample input shape `[c, h, w]`.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The atoms.
    pub fn atoms(&self) -> &[Sequential] {
        &self.atoms
    }

    /// The atoms, mutable.
    pub fn atoms_mut(&mut self) -> &mut [Sequential] {
        &mut self.atoms
    }

    /// Weight-free per-atom descriptions.
    pub fn specs(&self) -> Vec<AtomSpec> {
        let named = self.names.iter().zip(&self.atoms);
        named
            .map(|(name, atom)| AtomSpec::new(name.clone(), atom.child_specs()))
            .collect()
    }

    /// Points every layer of every atom at `backend`.
    ///
    /// Federated loops call this on per-client model clones so that outer
    /// (client) and inner (kernel) parallelism share the hardware budget
    /// (see `fp_tensor::parallel::thread_split`).
    pub fn set_backend(&mut self, backend: &fp_tensor::BackendHandle) {
        for atom in &mut self.atoms {
            atom.set_backend(backend);
        }
    }

    /// Full forward pass producing logits `[batch, n_classes]`.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward_range(x, 0, self.atoms.len(), mode)
    }

    /// Forward through atoms `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn forward_range(&mut self, x: &Tensor, from: usize, to: usize, mode: Mode) -> Tensor {
        forward(self.atoms_in(from, to), x, |a, x| a.forward(x, mode))
    }

    /// The attack-pass forward through atoms `[from, to)` (see
    /// [`Layer::forward_dx_only`]): the output of
    /// `forward_range(x, from, to, Mode::Eval)` bit for bit, caching only
    /// what [`CascadeModel::backward_input_range`] reads. Any forward no
    /// parameter backward follows may take it; after it `backward_range`
    /// and `backward_params_range` panic.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn forward_dx_only_range(&mut self, x: &Tensor, from: usize, to: usize) -> Tensor {
        forward(self.atoms_in(from, to), x, |a, x| a.forward_dx_only(x))
    }

    /// Full attack-pass forward, producing logits (see
    /// [`CascadeModel::forward_dx_only_range`]).
    pub fn forward_dx_only(&mut self, x: &Tensor) -> Tensor {
        self.forward_dx_only_range(x, 0, self.atoms.len())
    }

    /// Backward through atoms `[from, to)` (reverse order), accumulating
    /// parameter gradients; returns the gradient with respect to the input
    /// of atom `from`.
    pub fn backward_range(&mut self, grad: &Tensor, from: usize, to: usize) -> Tensor {
        backprop(self.atoms_in(from, to), grad, |a, g| a.backward(g)).into_owned()
    }

    /// Input-gradient-only backward through atoms `[from, to)`: the same
    /// tensor [`CascadeModel::backward_range`] returns, with every
    /// parameter gradient left as it was. This is the backward of an attack
    /// pass, which fetches only `∇_x` (paper §5.1 inner maximization).
    pub fn backward_input_range(&mut self, grad: &Tensor, from: usize, to: usize) -> Tensor {
        backprop(self.atoms_in(from, to), grad, |a, g| a.backward_input(g)).into_owned()
    }

    /// Parameter-gradient-only backward through atoms `[from, to)`: every
    /// parameter gradient ends bitwise where
    /// [`CascadeModel::backward_range`] leaves it, and the first layer of
    /// atom `from` computes no input gradient — the backward of a training
    /// step, whose `∇` at the window input nobody reads.
    pub fn backward_params_range(&mut self, grad: &Tensor, from: usize, to: usize) {
        let (first, rest) = self
            .atoms_in(from, to)
            .split_first_mut()
            .expect("non-empty range");
        first.backward_params(&backprop(rest, grad, |a, g| a.backward(g)));
    }

    /// Atoms `[from, to)`, a non-empty range.
    fn atoms_in(&mut self, from: usize, to: usize) -> &mut [Sequential] {
        assert!(
            from < to && to <= self.atoms.len(),
            "bad atom range {from}..{to}"
        );
        &mut self.atoms[from..to]
    }

    /// Full backward pass.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_range(grad, 0, self.atoms.len())
    }

    /// Full input-gradient-only backward pass.
    pub fn backward_input(&mut self, grad: &Tensor) -> Tensor {
        self.backward_input_range(grad, 0, self.atoms.len())
    }

    /// Full parameter-gradient-only backward pass.
    pub fn backward_params(&mut self, grad: &Tensor) {
        self.backward_params_range(grad, 0, self.atoms.len())
    }

    /// All trainable parameters, atom by atom.
    pub fn params(&self) -> Vec<&Param> {
        self.atoms.iter().flat_map(Layer::params).collect()
    }

    /// All trainable parameters, mutable.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.params_range_mut(0, self.atoms.len())
    }

    /// Parameters of atoms `[from, to)`, mutable.
    pub fn params_range_mut(&mut self, from: usize, to: usize) -> Vec<&mut Param> {
        self.atoms[from..to]
            .iter_mut()
            .flat_map(Layer::params_mut)
            .collect()
    }

    /// Zeroes every gradient.
    pub fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total trainable scalars.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.numel()).sum()
    }

    /// Flattens the values of atoms `[from, to)` into one vector
    /// (aggregation transport format).
    pub fn flat_params_range(&self, from: usize, to: usize) -> Vec<f32> {
        let params: Vec<&Param> = self.atoms[from..to]
            .iter()
            .flat_map(Layer::params)
            .collect();
        let mut out = Vec::with_capacity(params.iter().map(|p| p.numel()).sum());
        for p in params {
            out.extend_from_slice(p.value().data());
        }
        out
    }

    /// Flattened values of the whole model.
    pub fn flat_params(&self) -> Vec<f32> {
        self.flat_params_range(0, self.atoms.len())
    }

    /// Writes a flat vector produced by [`CascadeModel::flat_params_range`]
    /// back into atoms `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match.
    pub fn set_flat_params_range(&mut self, flat: &[f32], from: usize, to: usize) {
        let mut off = 0;
        for p in self.params_range_mut(from, to) {
            let n = p.numel();
            assert!(off + n <= flat.len(), "flat parameter vector too short");
            p.value_mut()
                .data_mut()
                .copy_from_slice(&flat[off..off + n]);
            off += n;
        }
        assert_eq!(off, flat.len(), "flat parameter vector too long");
    }

    /// Writes a full-model flat vector.
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        self.set_flat_params_range(flat, 0, self.atoms.len());
    }

    /// Collects all BN running statistics (traversal order).
    pub fn bn_stats(&self) -> Vec<(Tensor, Tensor)> {
        self.bn_stats_range(0, self.atoms.len())
    }

    /// Applies BN running statistics collected by
    /// [`CascadeModel::bn_stats`].
    ///
    /// # Panics
    ///
    /// Panics if the count or a shape does not match.
    pub fn set_bn_stats(&mut self, stats: &[(Tensor, Tensor)]) {
        self.set_bn_stats_range(stats, 0, self.atoms.len());
    }

    /// BN running statistics of atoms `[from, to)` only.
    pub fn bn_stats_range(&self, from: usize, to: usize) -> Vec<(Tensor, Tensor)> {
        let stats = self.atoms[from..to].iter().flat_map(Layer::running_stats);
        stats.map(|(m, v)| (m.clone(), v.clone())).collect()
    }

    /// Applies BN running statistics to atoms `[from, to)` only.
    ///
    /// # Panics
    ///
    /// Panics if the count does not match the window's BN layers or a
    /// shape does not match its layer's.
    pub fn set_bn_stats_range(&mut self, stats: &[(Tensor, Tensor)], from: usize, to: usize) {
        let slots: Vec<_> = self.atoms[from..to]
            .iter_mut()
            .flat_map(Layer::running_stats_mut)
            .collect();
        assert_eq!(slots.len(), stats.len(), "bn stats count mismatch");
        for ((mean, var), (m, v)) in slots.into_iter().zip(stats) {
            assert_eq!(m.shape(), mean.shape(), "bn stats mean shape");
            assert_eq!(v.shape(), var.shape(), "bn stats var shape");
            (*mean, *var) = (m.clone(), v.clone());
        }
    }

    /// Shape of atom `m`'s output for a single sample (no batch dim).
    pub fn feature_shape(&self, upto_atom: usize) -> Vec<usize> {
        crate::spec::cascade_output_shape(&self.specs()[..upto_atom], &self.input_shape)
    }

    /// Frees all cached activations.
    pub fn clear_cache(&mut self) {
        for a in &mut self.atoms {
            a.clear_cache();
        }
    }
}

/// Runs `step` through `atoms` in order. The range is non-empty, so the
/// first atom borrows `x` and nothing is copied.
fn forward(
    atoms: &mut [Sequential],
    x: &Tensor,
    step: impl Fn(&mut Sequential, &Tensor) -> Tensor,
) -> Tensor {
    let mut cur = Cow::Borrowed(x);
    for atom in atoms {
        cur = Cow::Owned(step(atom, &cur));
    }
    cur.into_owned()
}

/// Runs `step` through `atoms` in reverse, borrowing `grad` for the last
/// one (and returning it as is when there are none).
fn backprop<'g>(atoms: &mut [Sequential], grad: &'g Tensor, step: BackStep) -> Cow<'g, Tensor> {
    let mut g = Cow::Borrowed(grad);
    for atom in atoms.iter_mut().rev() {
        g = Cow::Owned(step(atom, &g));
    }
    g
}

/// A model is its own deployable global model: lets a single-model
/// server state be the model itself.
impl AsRef<CascadeModel> for CascadeModel {
    fn as_ref(&self) -> &CascadeModel {
        self
    }
}

impl AsMut<CascadeModel> for CascadeModel {
    fn as_mut(&mut self) -> &mut CascadeModel {
        self
    }
}

impl std::fmt::Debug for CascadeModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CascadeModel")
            .field("atoms", &self.atoms.len())
            .field("params", &self.param_count())
            .field("input_shape", &self.input_shape)
            .field("n_classes", &self.n_classes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    fn tiny() -> CascadeModel {
        let mut rng = fp_tensor::seeded_rng(0);
        models::tiny_vgg(3, 8, 4, &[4, 8], &mut rng)
    }

    #[test]
    fn forward_produces_logits() {
        let mut m = tiny();
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = m.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 4]);
    }

    #[test]
    fn ranged_forward_composes_to_full() {
        let mut m = tiny();
        let mut rng = fp_tensor::seeded_rng(1);
        let x = Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, &mut rng);
        let full = m.forward(&x, Mode::Eval);
        let n = m.num_atoms();
        let mid = m.forward_range(&x, 0, n / 2, Mode::Eval);
        let composed = m.forward_range(&mid, n / 2, n, Mode::Eval);
        for (a, b) in full.data().iter().zip(composed.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn flat_params_roundtrip() {
        let m = tiny();
        let flat = m.flat_params();
        assert_eq!(flat.len(), m.param_count());
        let mut m2 = tiny();
        m2.set_flat_params(&flat);
        assert_eq!(m2.flat_params(), flat);
    }

    #[test]
    fn feature_shape_matches_actual_forward() {
        let mut m = tiny();
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        for k in 1..m.num_atoms() {
            let z = m.forward_range(&x, 0, k, Mode::Eval);
            let expect = m.feature_shape(k);
            assert_eq!(&z.shape()[1..], expect.as_slice(), "atom {k}");
        }
    }

    #[test]
    fn bn_stats_roundtrip() {
        let m = tiny();
        let stats = m.bn_stats();
        assert!(!stats.is_empty(), "tiny_vgg has batchnorm layers");
        let mut m2 = tiny();
        let doubled: Vec<_> = stats
            .iter()
            .map(|(mean, var)| (mean.map(|v| v + 1.0), var.scale(2.0)))
            .collect();
        m2.set_bn_stats(&doubled);
        let got = m2.bn_stats();
        for ((m1, v1), (m2_, v2)) in doubled.iter().zip(got.iter()) {
            assert_eq!(m1, m2_);
            assert_eq!(v1, v2);
        }
    }

    #[test]
    #[should_panic(expected = "bad atom range")]
    fn empty_range_rejected() {
        let mut m = tiny();
        m.forward_range(&Tensor::zeros(&[1, 3, 8, 8]), 2, 2, Mode::Eval);
    }
}
