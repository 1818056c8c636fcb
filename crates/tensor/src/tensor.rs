//! The dense `f32` tensor type.

use crate::shape::numel;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense, contiguous, row-major `f32` tensor.
///
/// This is the single numeric container used across the workspace: network
/// activations are `[batch, channels, height, width]`, weight matrices are
/// `[rows, cols]`, convolution kernels are `[out_ch, in_ch, kh, kw]`.
///
/// All elementwise binary operations require exactly matching shapes; there
/// is no implicit broadcasting (the few places that need broadcast-like
/// behaviour, e.g. bias addition, are expressed explicitly by the layers).
///
/// # Example
///
/// ```
/// use fp_tensor::Tensor;
///
/// let x = Tensor::full(&[2, 3], 2.0);
/// let y = x.scale(0.5).add(&Tensor::ones(&[2, 3]));
/// assert_eq!(y.data(), &[2.0; 6]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    // ---------------------------------------------------------------- ctors

    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            data: vec![0.0; numel(shape)],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            data: vec![value; numel(shape)],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the number of elements implied
    /// by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel(shape),
            "buffer length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Uniform random tensor in `[lo, hi)`: one `gen_range(lo..hi)` per
    /// element in order, drawn by [`crate::rng::fill_uniform`].
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` and `hi - lo` is finite.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut StdRng) -> Self {
        let mut data = vec![0.0; numel(shape)];
        crate::rng::fill_uniform(rng, lo, hi, &mut data);
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Standard-normal random tensor scaled by `std`.
    pub fn randn<R: Rng + ?Sized>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let mut sampler = crate::rng::NormalSampler::new();
        let data = (0..numel(shape))
            .map(|_| sampler.sample(rng) * std)
            .collect();
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    // ------------------------------------------------------------ accessors

    /// The shape (dimension list).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the backing buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning the backing buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a flat row-major offset.
    pub fn at(&self, flat: usize) -> f32 {
        self.data[flat]
    }

    // ------------------------------------------------------------- reshape

    /// Returns a tensor sharing this data with a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        assert_eq!(
            self.data.len(),
            numel(shape),
            "cannot reshape {:?} ({} elems) to {:?}",
            self.shape,
            self.data.len(),
            shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// Like [`Tensor::reshape`] but leaves `self` untouched.
    pub fn reshaped(&self, shape: &[usize]) -> Self {
        self.clone().reshape(shape)
    }

    // -------------------------------------------------------- element-wise

    /// Elementwise sum. Shapes must match exactly.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_with(other, |a, b| a * b)
    }

    /// Multiplies every element by `k`.
    pub fn scale(&self, k: f32) -> Tensor {
        self.map(|a| a * k)
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&a| f(a)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// In-place `self += k * other`. Shapes must match exactly.
    pub fn axpy(&mut self, k: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += k * b;
        }
    }

    /// Elementwise clamp into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|a| a.clamp(lo, hi))
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(&self, other: &Tensor, f: F) -> Tensor {
        assert_eq!(
            self.shape, other.shape,
            "elementwise op requires equal shapes"
        );
        Tensor {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    // ----------------------------------------------------------- reductions

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Euclidean (ℓ2) norm of the flattened tensor.
    pub fn norm_l2(&self) -> f32 {
        self.data
            .iter()
            .map(|&a| a as f64 * a as f64)
            .sum::<f64>()
            .sqrt() as f32
    }

    /// ℓ∞ norm (maximum absolute value) of the flattened tensor.
    pub fn norm_linf(&self) -> f32 {
        self.data.iter().map(|a| a.abs()).fold(0.0, f32::max)
    }

    /// Dot product of two tensors viewed as flat vectors.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.numel(), other.numel(), "dot length mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    // ------------------------------------------------------------- batched

    /// Splits the leading dimension: returns the `i`-th slice of a
    /// `[n, ...]` tensor as a `[...]`-shaped tensor (copied).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is rank-0 or `i` is out of range.
    pub fn index_batch(&self, i: usize) -> Tensor {
        assert!(!self.shape.is_empty(), "cannot index a scalar");
        let n = self.shape[0];
        assert!(i < n, "batch index {i} out of range {n}");
        let inner: usize = self.shape[1..].iter().product();
        Tensor {
            data: self.data[i * inner..(i + 1) * inner].to_vec(),
            shape: self.shape[1..].to_vec(),
        }
    }

    /// Stacks equally shaped tensors along a new leading dimension.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or shapes differ.
    pub fn stack(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "stack of zero tensors");
        let inner = items[0].shape.clone();
        let mut data = Vec::with_capacity(items.len() * items[0].numel());
        for t in items {
            assert_eq!(t.shape, inner, "stack shape mismatch");
            data.extend_from_slice(&t.data);
        }
        let mut shape = vec![items.len()];
        shape.extend_from_slice(&inner);
        Tensor { data, shape }
    }

    /// The 2-D transpose of a `[m, n]` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose2 requires a matrix");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        out
    }

    /// Matrix multiply: `self [m,k] × other [k,n] → [m,n]`, executed on
    /// the process-wide default [`crate::Backend`].
    ///
    /// # Panics
    ///
    /// Panics unless both operands are matrices with compatible inner
    /// dimensions.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        self.matmul_on(other, &*crate::default_backend())
    }

    /// Matrix multiply on an explicit backend.
    ///
    /// # Panics
    ///
    /// Panics unless both operands are matrices with compatible inner
    /// dimensions.
    pub fn matmul_on(&self, other: &Tensor, backend: &dyn crate::Backend) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be a matrix");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be a matrix");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
        let mut out = Tensor::zeros(&[m, n]);
        backend.matmul_into(self.data(), other.data(), out.data_mut(), m, k, n);
        out
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor.
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ctors_fill_correctly() {
        assert_eq!(Tensor::zeros(&[2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).data(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], -1.5).data(), &[-1.5, -1.5]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_validates_length() {
        Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let i = Tensor::eye(3);
        assert_eq!(i.data()[0], 1.0);
        assert_eq!(i.data()[4], 1.0);
        assert_eq!(i.data()[8], 1.0);
        assert_eq!(i.sum(), 3.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(a.scale(-2.0).data(), &[-2.0, -4.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_vec(vec![1.0, 1.0], &[2]);
        let b = Tensor::from_vec(vec![2.0, -4.0], &[2]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0, -1.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![3.0, -4.0], &[2]);
        assert_eq!(t.sum(), -1.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -4.0);
        assert!((t.norm_l2() - 5.0).abs() < 1e-6);
        assert_eq!(t.norm_linf(), 4.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).reshape(&[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn index_batch_and_stack_roundtrip() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 2, 2]);
        let parts: Vec<Tensor> = (0..3).map(|i| t.index_batch(i)).collect();
        assert_eq!(parts[1].data(), &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(Tensor::stack(&parts), t);
    }

    #[test]
    fn transpose2_involution() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let tt = t.transpose2();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.transpose2(), t);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = Tensor::rand_uniform(&[4, 4], -1.0, 1.0, &mut rng);
        let prod = a.matmul(&Tensor::eye(4));
        for (x, y) in prod.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        assert_eq!(a.matmul(&b).data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn randn_is_roughly_standard() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let t = Tensor::randn(&[10_000], 1.0, &mut rng);
        assert!(t.mean().abs() < 0.05, "mean {}", t.mean());
        let var = t.map(|x| x * x).mean() - t.mean() * t.mean();
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
