//! Classification losses.

use fp_tensor::{log_softmax_rows, softmax_rows, Tensor};

/// Softmax cross-entropy with mean reduction over the batch.
///
/// `forward` returns both the scalar loss and the gradient with respect to
/// the logits — computing them together is free (`∂L/∂logits =
/// (softmax − onehot)/batch`) and every training loop needs both.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrossEntropyLoss {
    /// The mean's denominator; `None` is the batch given to `forward`.
    over: Option<usize>,
}

impl CrossEntropyLoss {
    /// Creates the loss, a mean over the batch given to `forward`.
    pub fn new() -> Self {
        CrossEntropyLoss::default()
    }

    /// The loss of a row chunk of an `n`-row batch: the loss and its
    /// gradient are divided by `n`, not by the chunk's rows, so every
    /// gradient row is bitwise that row of the whole batch's gradient
    /// (the loss itself is the chunk's share of the batch mean). This is
    /// what lets an attack split its batch by sample.
    pub fn mean_over(n: usize) -> Self {
        CrossEntropyLoss { over: Some(n) }
    }

    /// Mean cross-entropy of `logits` `[batch, classes]` against integer
    /// `labels` (divided by [`CrossEntropyLoss::mean_over`]'s `n` when
    /// given), plus the gradient with respect to the logits.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or a label is out of range.
    pub fn forward(&self, logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        assert_eq!(logits.shape().len(), 2, "logits must be [batch, classes]");
        let (batch, classes) = (logits.shape()[0], logits.shape()[1]);
        assert_eq!(labels.len(), batch, "label count mismatch");
        let log_probs = log_softmax_rows(logits);
        let mut loss = 0.0f64;
        for (r, &y) in labels.iter().enumerate() {
            assert!(y < classes, "label {y} out of range {classes}");
            loss -= log_probs.data()[r * classes + y] as f64;
        }
        let n = self.over.unwrap_or(batch);
        let mut grad = softmax_rows(logits);
        let scale = 1.0 / n as f32;
        for (r, &y) in labels.iter().enumerate() {
            grad.data_mut()[r * classes + y] -= 1.0;
        }
        grad.map_inplace(|g| g * scale);
        ((loss / n as f64) as f32, grad)
    }

    /// Loss only (no gradient). Convenience for evaluation loops.
    pub fn loss(&self, logits: &Tensor, labels: &[usize]) -> f32 {
        self.forward(logits, labels).0
    }
}

/// Fraction of rows whose argmax equals the label.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    assert_eq!(logits.shape()[0], labels.len(), "label count mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let preds = fp_tensor::argmax_rows(logits);
    let correct = preds
        .iter()
        .zip(labels.iter())
        .filter(|(p, y)| p == y)
        .count();
    correct as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_classes() {
        let ce = CrossEntropyLoss::new();
        let logits = Tensor::zeros(&[2, 4]);
        let (loss, _) = ce.forward(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let ce = CrossEntropyLoss::new();
        let logits = Tensor::from_vec(vec![10.0, 0.0, 0.0], &[1, 3]);
        let (loss, _) = ce.forward(&logits, &[0]);
        assert!(loss < 1e-3, "loss {loss}");
    }

    #[test]
    fn gradient_matches_softmax_minus_onehot() {
        let ce = CrossEntropyLoss::new();
        let logits = Tensor::from_vec(vec![1.0, 2.0, 0.5, -1.0], &[2, 2]);
        let (_, grad) = ce.forward(&logits, &[1, 0]);
        let sm = softmax_rows(&logits);
        let want = [
            (sm.data()[0] - 0.0) / 2.0,
            (sm.data()[1] - 1.0) / 2.0,
            (sm.data()[2] - 1.0) / 2.0,
            (sm.data()[3] - 0.0) / 2.0,
        ];
        for (g, w) in grad.data().iter().zip(want.iter()) {
            assert!((g - w).abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let ce = CrossEntropyLoss::new();
        let logits = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.1, 0.9, -0.2], &[2, 3]);
        let labels = [2usize, 0];
        let (_, grad) = ce.forward(&logits, &labels);
        let h = 1e-3f32;
        for i in 0..logits.numel() {
            let mut lp = logits.clone();
            lp.data_mut()[i] += h;
            let mut lm = logits.clone();
            lm.data_mut()[i] -= h;
            let num = (ce.loss(&lp, &labels) - ce.loss(&lm, &labels)) / (2.0 * h);
            assert!(
                (grad.data()[i] - num).abs() < 1e-3,
                "coord {i}: {} vs {num}",
                grad.data()[i]
            );
        }
    }

    /// A row chunk's gradient under `mean_over(n)` is bitwise those rows
    /// of the whole batch's gradient, and the chunks' losses add up to
    /// the batch loss.
    #[test]
    fn split_validation_mean_over_slices_the_batch_gradient() {
        let mut rng = fp_tensor::seeded_rng(5);
        let (n, classes) = (13, 7);
        let logits = Tensor::rand_uniform(&[n, classes], -4.0, 4.0, &mut rng);
        let labels: Vec<usize> = (0..n).map(|r| (r * 5) % classes).collect();
        let (loss, grad) = CrossEntropyLoss::new().forward(&logits, &labels);
        let mut summed = 0.0;
        for (lo, hi) in [(0, 1), (1, 6), (6, 12), (12, 13), (13, 13)] {
            let rows = Tensor::from_vec(
                logits.data()[lo * classes..hi * classes].to_vec(),
                &[hi - lo, classes],
            );
            let (part, g) = CrossEntropyLoss::mean_over(n).forward(&rows, &labels[lo..hi]);
            let want = &grad.data()[lo * classes..hi * classes];
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g.data()), bits(want), "rows {lo}..{hi}");
            summed += part;
        }
        assert!((summed - loss).abs() < 1e-5, "{summed} vs {loss}");
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[3, 2]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "label 5 out of range")]
    fn rejects_out_of_range_label() {
        CrossEntropyLoss::new().forward(&Tensor::zeros(&[1, 3]), &[5]);
    }
}
