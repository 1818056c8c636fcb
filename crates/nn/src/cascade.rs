//! The cascaded atom model.

use crate::atom::Atom;
use crate::layer::Mode;
use crate::param::Param;
use crate::spec::AtomSpec;
use fp_tensor::Tensor;
use std::borrow::Cow;

/// A backbone model expressed as a plain cascade of [`Atom`]s
/// `a₁ ∘ a₂ ∘ ⋯ ∘ a_L`, the structure FedProphet's model partitioner
/// consumes (paper §6.1).
///
/// The final atom ends in the classifier, so a full forward pass produces
/// logits. Ranged forward/backward (`forward_range`, `backward_range`)
/// support cascade learning, where only a contiguous atom window is
/// trained at a time.
pub struct CascadeModel {
    atoms: Vec<Atom>,
    input_shape: Vec<usize>,
    n_classes: usize,
}

impl CascadeModel {
    /// Assembles a model from atoms.
    ///
    /// `input_shape` is the per-sample shape `[c, h, w]`; `n_classes` the
    /// logit count produced by the last atom.
    ///
    /// # Panics
    ///
    /// Panics if `atoms` is empty.
    pub fn new(atoms: Vec<Atom>, input_shape: &[usize], n_classes: usize) -> Self {
        assert!(!atoms.is_empty(), "a cascade needs at least one atom");
        CascadeModel {
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
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The atoms, mutable.
    pub fn atoms_mut(&mut self) -> &mut [Atom] {
        &mut self.atoms
    }

    /// Weight-free per-atom descriptions.
    pub fn specs(&self) -> Vec<AtomSpec> {
        self.atoms.iter().map(Atom::spec).collect()
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
        assert!(
            from < to && to <= self.atoms.len(),
            "bad atom range {from}..{to}"
        );
        // The range is non-empty, so the first atom borrows `x` and
        // nothing is copied.
        let mut cur = Cow::Borrowed(x);
        for atom in &mut self.atoms[from..to] {
            cur = Cow::Owned(atom.forward(&cur, mode));
        }
        cur.into_owned()
    }

    /// Backward through atoms `[from, to)` (reverse order), accumulating
    /// parameter gradients; returns the gradient with respect to the input
    /// of atom `from`.
    pub fn backward_range(&mut self, grad: &Tensor, from: usize, to: usize) -> Tensor {
        self.backprop_range(grad, from, to, Atom::backward)
    }

    /// Input-gradient-only backward through atoms `[from, to)`: the same
    /// tensor [`CascadeModel::backward_range`] returns, with every
    /// parameter gradient left as it was. This is the backward of an attack
    /// pass, which fetches only `∇_x` (paper §5.1 inner maximization).
    pub fn backward_input_range(&mut self, grad: &Tensor, from: usize, to: usize) -> Tensor {
        self.backprop_range(grad, from, to, Atom::backward_input)
    }

    fn backprop_range(
        &mut self,
        grad: &Tensor,
        from: usize,
        to: usize,
        step: fn(&mut Atom, &Tensor) -> Tensor,
    ) -> Tensor {
        assert!(
            from < to && to <= self.atoms.len(),
            "bad atom range {from}..{to}"
        );
        let mut g = Cow::Borrowed(grad);
        for atom in self.atoms[from..to].iter_mut().rev() {
            g = Cow::Owned(step(atom, &g));
        }
        g.into_owned()
    }

    /// Full backward pass.
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.backward_range(grad, 0, self.atoms.len())
    }

    /// Full input-gradient-only backward pass.
    pub fn backward_input(&mut self, grad: &Tensor) -> Tensor {
        self.backward_input_range(grad, 0, self.atoms.len())
    }

    /// All trainable parameters, atom by atom.
    pub fn params(&self) -> Vec<&Param> {
        self.atoms.iter().flat_map(Atom::params).collect()
    }

    /// All trainable parameters, mutable.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.atoms.iter_mut().flat_map(Atom::params_mut).collect()
    }

    /// Parameters of atoms `[from, to)`, mutable.
    pub fn params_range_mut(&mut self, from: usize, to: usize) -> Vec<&mut Param> {
        self.atoms[from..to]
            .iter_mut()
            .flat_map(Atom::params_mut)
            .collect()
    }

    /// Zeroes every gradient.
    pub fn zero_grad(&mut self) {
        for a in &mut self.atoms {
            a.zero_grad();
        }
    }

    /// Total trainable scalars.
    pub fn param_count(&self) -> usize {
        self.atoms.iter().map(Atom::param_count).sum()
    }

    /// Flattens the values of atoms `[from, to)` into one vector
    /// (aggregation transport format).
    pub fn flat_params_range(&self, from: usize, to: usize) -> Vec<f32> {
        let mut out = Vec::new();
        for a in &self.atoms[from..to] {
            for p in a.params() {
                out.extend_from_slice(p.value().data());
            }
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
        for a in &mut self.atoms[from..to] {
            for p in a.params_mut() {
                let n = p.numel();
                assert!(off + n <= flat.len(), "flat parameter vector too short");
                p.value_mut()
                    .data_mut()
                    .copy_from_slice(&flat[off..off + n]);
                off += n;
            }
        }
        assert_eq!(off, flat.len(), "flat parameter vector too long");
    }

    /// Writes a full-model flat vector.
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        self.set_flat_params_range(flat, 0, self.atoms.len());
    }

    /// Collects all BN running statistics (traversal order).
    pub fn bn_stats(&self) -> Vec<(Tensor, Tensor)> {
        let mut out = Vec::new();
        for a in &self.atoms {
            a.collect_bn_stats(&mut out);
        }
        out
    }

    /// Applies BN running statistics collected by
    /// [`CascadeModel::bn_stats`].
    ///
    /// # Panics
    ///
    /// Panics if the count does not match.
    pub fn set_bn_stats(&mut self, stats: &[(Tensor, Tensor)]) {
        let mut idx = 0;
        for a in &mut self.atoms {
            a.apply_bn_stats(stats, &mut idx);
        }
        assert_eq!(idx, stats.len(), "bn stats count mismatch");
    }

    /// BN running statistics of atoms `[from, to)` only.
    pub fn bn_stats_range(&self, from: usize, to: usize) -> Vec<(Tensor, Tensor)> {
        let mut out = Vec::new();
        for a in &self.atoms[from..to] {
            a.collect_bn_stats(&mut out);
        }
        out
    }

    /// Applies BN running statistics to atoms `[from, to)` only.
    ///
    /// # Panics
    ///
    /// Panics if the count does not match the window's BN layers.
    pub fn set_bn_stats_range(&mut self, stats: &[(Tensor, Tensor)], from: usize, to: usize) {
        let mut idx = 0;
        for a in &mut self.atoms[from..to] {
            a.apply_bn_stats(stats, &mut idx);
        }
        assert_eq!(idx, stats.len(), "bn stats count mismatch for window");
    }

    /// Shape of atom `m`'s output for a single sample (no batch dim).
    pub fn feature_shape(&self, upto_atom: usize) -> Vec<usize> {
        let mut shape = self.input_shape.clone();
        for a in &self.atoms[0..upto_atom] {
            shape = a.spec().output_shape(&shape);
        }
        shape
    }

    /// Frees all cached activations.
    pub fn clear_cache(&mut self) {
        for a in &mut self.atoms {
            a.clear_cache();
        }
    }
}

impl Clone for CascadeModel {
    fn clone(&self) -> Self {
        CascadeModel {
            atoms: self.atoms.clone(),
            input_shape: self.input_shape.clone(),
            n_classes: self.n_classes,
        }
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
