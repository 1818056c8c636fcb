//! Concrete layer implementations.

pub mod basic_block;
pub mod bn;
pub mod conv;
pub mod dropout;
pub mod flatten;
mod fused;
pub mod linear;
pub mod pool;
pub mod relu;
pub mod sequential;

#[cfg(test)]
mod layer_kernel;

use fp_tensor::Tensor;

/// An empty buffer with room for `n` elements: `old`'s allocation when it
/// held exactly `n` elements (a layer's previous cache — the next forward
/// of a PGD step has the same shape), a fresh one otherwise. Recycled
/// buffers live only in a layer's cache slot, so `clear_cache` still
/// frees them and a clone of a cleared model carries nothing.
pub(crate) fn recycle<T>(old: Option<Vec<T>>, n: usize) -> Vec<T> {
    match old {
        Some(mut buf) if buf.len() == n => {
            buf.clear();
            buf
        }
        _ => Vec::with_capacity(n),
    }
}

/// A copy of `x` in [`recycle`]d storage: the cached input of
/// `Conv2d::forward` / `Linear::forward`.
pub(crate) fn cache_copy(old: Option<Tensor>, x: &Tensor) -> Tensor {
    let mut buf = recycle(old.map(Tensor::into_vec), x.numel());
    buf.extend_from_slice(x.data());
    Tensor::from_vec(buf, x.shape())
}

/// The `hw`-element planes of an NCHW buffer, in `(sample, channel)`
/// order (an empty buffer has none, whatever `hw` is).
pub(crate) fn planes(data: &[f32], hw: usize) -> std::slice::ChunksExact<'_, f32> {
    data.chunks_exact(hw.max(1))
}
