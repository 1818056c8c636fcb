//! Mini-batch iteration.

use crate::dataset::Dataset;
use fp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// An infinite shuffled mini-batch iterator over a subset of a dataset.
///
/// Federated local training runs a fixed number of iterations `E` per round
/// (paper §B.4: `E = 30`), not epochs, so the iterator reshuffles and wraps
/// transparently when the subset is exhausted. The last partial batch of an
/// epoch is dropped (standard `drop_last` semantics) unless the subset is
/// smaller than one batch, in which case the whole subset is the batch.
#[derive(Debug)]
pub struct BatchIter<'a> {
    ds: &'a Dataset,
    indices: Vec<usize>,
    batch_size: usize,
    cursor: usize,
    rng: StdRng,
}

impl<'a> BatchIter<'a> {
    /// Creates a batch iterator over `indices` of `ds`.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or `batch_size` is zero.
    pub fn new(ds: &'a Dataset, indices: &[usize], batch_size: usize, seed: u64) -> Self {
        assert!(!indices.is_empty(), "cannot iterate an empty subset");
        assert!(batch_size > 0, "batch size must be positive");
        let mut it = BatchIter {
            ds,
            indices: indices.to_vec(),
            batch_size: batch_size.min(indices.len()),
            cursor: 0,
            rng: StdRng::seed_from_u64(seed ^ 0xBA7C4),
        };
        it.reshuffle();
        it
    }

    fn reshuffle(&mut self) {
        self.indices.shuffle(&mut self.rng);
        self.cursor = 0;
    }

    /// Draws the next mini-batch `([b, ...], labels)`.
    pub fn next_batch(&mut self) -> (Tensor, Vec<usize>) {
        let ds = self.ds;
        ds.batch(self.next_indices())
    }

    /// Draws the next mini-batch as its dataset indices — the samples
    /// [`next_batch`](Self::next_batch) would have copied out, in the same
    /// order, advancing the iterator the same way.
    pub fn next_indices(&mut self) -> &[usize] {
        if self.cursor + self.batch_size > self.indices.len() {
            self.reshuffle();
        }
        let at = self.cursor;
        self.cursor += self.batch_size;
        &self.indices[at..at + self.batch_size]
    }

    /// The effective batch size (may be smaller than requested for tiny
    /// subsets).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SynthConfig};

    #[test]
    fn batches_have_requested_size() {
        let ds = generate(&SynthConfig::tiny(3, 8), 0).train;
        let idx: Vec<usize> = (0..20).collect();
        let mut it = BatchIter::new(&ds, &idx, 8, 1);
        for _ in 0..5 {
            let (x, y) = it.next_batch();
            assert_eq!(x.shape()[0], 8);
            assert_eq!(y.len(), 8);
        }
    }

    #[test]
    fn wraps_and_reshuffles() {
        let ds = generate(&SynthConfig::tiny(3, 8), 0).train;
        let idx: Vec<usize> = (0..10).collect();
        let mut it = BatchIter::new(&ds, &idx, 4, 2);
        // 10 / 4 → 2 full batches then reshuffle; must keep yielding.
        for _ in 0..10 {
            it.next_batch();
        }
    }

    #[test]
    fn tiny_subset_clamps_batch() {
        let ds = generate(&SynthConfig::tiny(3, 8), 0).train;
        let idx = vec![0, 1, 2];
        let mut it = BatchIter::new(&ds, &idx, 64, 3);
        assert_eq!(it.batch_size(), 3);
        let (x, _) = it.next_batch();
        assert_eq!(x.shape()[0], 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = generate(&SynthConfig::tiny(3, 8), 0).train;
        let idx: Vec<usize> = (0..16).collect();
        let mut a = BatchIter::new(&ds, &idx, 4, 7);
        let mut b = BatchIter::new(&ds, &idx, 4, 7);
        for _ in 0..6 {
            assert_eq!(a.next_batch().1, b.next_batch().1);
        }
    }

    #[test]
    fn next_indices_draws_the_batches_of_next_batch() {
        let ds = generate(&SynthConfig::tiny(3, 8), 0).train;
        let idx: Vec<usize> = (3..13).collect();
        let (mut a, mut b) = (
            BatchIter::new(&ds, &idx, 4, 9),
            BatchIter::new(&ds, &idx, 4, 9),
        );
        // 10 / 4: the third draw of every epoch reshuffles.
        for _ in 0..9 {
            let (x, y) = a.next_batch();
            let drawn = b.next_indices().to_vec();
            assert_eq!(ds.batch(&drawn), (x, y));
        }
    }

    #[test]
    #[should_panic(expected = "empty subset")]
    fn rejects_empty_subset() {
        let ds = generate(&SynthConfig::tiny(3, 8), 0).train;
        BatchIter::new(&ds, &[], 4, 0);
    }
}
