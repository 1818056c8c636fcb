//! Dense `f32` tensors and the numeric kernels used by the FedProphet
//! reproduction.
//!
//! This crate is the lowest layer of the workspace: a small, dependency-light
//! tensor library with exactly the operations a from-scratch convolutional
//! network trainer needs — elementwise arithmetic, reductions, norms, a
//! blocked matrix multiply (plus transposed variants for backward passes),
//! and `im2col`/`col2im` for convolutions.
//!
//! Compute is pluggable: GEMM and convolution lowering execute through a
//! [`Backend`] trait object — [`Scalar`] reference kernels or the
//! register-tiled, multi-threaded [`Parallel`] backend (the process-wide
//! default, see [`default_backend`]). The [`parallel`] module additionally
//! provides the scoped-thread helpers the federated layers use to fan out
//! over clients without oversubscribing the kernel threads.
//!
//! Tensors are row-major, contiguous `Vec<f32>` buffers with an explicit
//! shape. There is no autograd here; gradients are computed by the layer
//! implementations in `fp-nn`.
//!
//! # Example
//!
//! ```
//! use fp_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

mod backend;
mod im2col;
pub mod isa;
mod matmul;
mod ops;
mod pack;
pub mod parallel;
pub mod quant;
pub mod rng;
mod shape;
mod tensor;

pub use backend::{
    backend_for_threads, default_backend, set_default_backend, Backend, BackendHandle, Parallel,
    Scalar,
};
pub use im2col::{col2im, im2col, Conv2dGeometry};
pub use matmul::{matmul_into, matmul_nt_into, matmul_tn_into};
pub use ops::{argmax_rows, log_softmax_rows, softmax_rows};
pub use rng::{seeded_rng, NormalSampler};
pub use shape::{numel, Shape};
pub use tensor::Tensor;

#[cfg(test)]
pub(crate) mod test_support {
    /// Deterministic pseudo-random test vector (small LCG); shared by the
    /// kernel unit tests so generators cannot silently diverge.
    pub(crate) fn arb(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let v = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed);
                ((v >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }
}
