//! Robustness evaluation harness.

use crate::apgd::{Apgd, ApgdConfig};
use crate::pgd::{Pgd, PgdConfig};
use crate::target::{AttackTarget, ModelTarget};
use fp_data::Dataset;
use fp_nn::CascadeModel;
use fp_tensor::{argmax_rows, seeded_rng, BackendHandle, Tensor};
use rand::rngs::StdRng;

/// Clean and adversarial accuracy of a model (the paper's Table 2 columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessReport {
    /// Accuracy on clean inputs ("Clean Acc.").
    pub clean_acc: f32,
    /// Accuracy under PGD-20 ("PGD Acc.").
    pub pgd_acc: f32,
    /// Accuracy under the APGD AutoAttack surrogate ("AA Acc.").
    pub apgd_acc: f32,
}

impl std::fmt::Display for RobustnessReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "clean {:.2}% | pgd {:.2}% | aa {:.2}%",
            self.clean_acc * 100.0,
            self.pgd_acc * 100.0,
            self.apgd_acc * 100.0
        )
    }
}

/// Evaluates clean, PGD, and APGD accuracy of `model` over `ds`
/// (batched; deterministic given `seed`).
///
/// # Panics
///
/// Panics if the dataset is empty or `batch_size` is zero.
pub fn evaluate_robustness(
    model: &mut CascadeModel,
    ds: &Dataset,
    pgd_cfg: &PgdConfig,
    apgd_cfg: &ApgdConfig,
    batch_size: usize,
    seed: u64,
) -> RobustnessReport {
    assert!(!ds.is_empty(), "cannot evaluate an empty dataset");
    assert!(batch_size > 0, "batch size must be positive");
    let pgd = Pgd::new(*pgd_cfg);
    let apgd = Apgd::new(*apgd_cfg);
    let mut rng = seeded_rng(seed ^ 0xE7A1);
    let (mut clean_ok, mut pgd_ok, mut apgd_ok) = (0usize, 0usize, 0usize);
    let n = ds.len();
    let mut i = 0;
    while i < n {
        let hi = (i + batch_size).min(n);
        let idx: Vec<usize> = (i..hi).collect();
        let (x, labels) = ds.batch(&idx);
        let mut target = ModelTarget::new(model);
        clean_ok += count_correct(&mut target, &x, &labels);
        let adv = pgd.attack(&mut target, &x, &labels, &mut rng);
        pgd_ok += count_correct(&mut target, &adv, &labels);
        let adv = apgd.attack(&mut target, &x, &labels, &mut rng);
        apgd_ok += count_correct(&mut target, &adv, &labels);
        i = hi;
    }
    RobustnessReport {
        clean_acc: clean_ok as f32 / n as f32,
        pgd_acc: pgd_ok as f32 / n as f32,
        apgd_acc: apgd_ok as f32 / n as f32,
    }
}

/// Clean accuracy only (no attacks).
pub fn clean_accuracy(model: &mut CascadeModel, ds: &Dataset, batch_size: usize) -> f32 {
    assert!(!ds.is_empty(), "cannot evaluate an empty dataset");
    let mut ok = 0usize;
    let n = ds.len();
    let mut i = 0;
    while i < n {
        let hi = (i + batch_size).min(n);
        let idx: Vec<usize> = (i..hi).collect();
        let (x, labels) = ds.batch(&idx);
        let logits = model.forward(&x, fp_nn::Mode::Eval);
        let preds = argmax_rows(&logits);
        ok += preds.iter().zip(&labels).filter(|(p, y)| p == y).count();
        i = hi;
    }
    ok as f32 / n as f32
}

fn count_correct(target: &mut dyn AttackTarget, x: &Tensor, labels: &[usize]) -> usize {
    let logits = target.logits(x);
    let preds = argmax_rows(&logits);
    preds.iter().zip(labels).filter(|(p, y)| p == y).count()
}

/// A model [`split_accuracy`] attacks: cloned once per row chunk onto
/// that chunk's kernel threads, and wrapped as the [`AttackTarget`] of a
/// chunk.
pub trait SplitModel: Clone + Send + Sync {
    /// Points the model at `backend`.
    fn set_backend(&mut self, backend: &BackendHandle);

    /// The target of a row chunk of an `n`-row batch: its loss, and so
    /// its input gradient, is divided by `n`, not by the chunk's rows.
    fn chunk_target(&mut self, n: usize) -> Box<dyn AttackTarget + '_>;
}

impl SplitModel for CascadeModel {
    fn set_backend(&mut self, backend: &BackendHandle) {
        CascadeModel::set_backend(self, backend);
    }

    fn chunk_target(&mut self, n: usize) -> Box<dyn AttackTarget + '_> {
        Box::new(ModelTarget::new(self).mean_over(n))
    }
}

/// What [`split_accuracy`] measured on one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitAccuracy {
    /// Clean accuracy (0.0 on an empty batch).
    pub clean: f32,
    /// Accuracy on the PGD examples (0.0 on an empty batch).
    pub adv: f32,
    /// The PGD examples, the chunks' rows in order.
    pub adv_x: Tensor,
}

/// Clean logits → PGD → adversarial logits on `(x, labels)`, split by
/// sample: `threads` is `fp_tensor::parallel::thread_split`'s `(outer,
/// inner)`, and each of up to `outer` contiguous row chunks runs on its
/// own clone of `model` with `inner` kernel threads. The PGD starts are
/// drawn once for the whole batch ([`Pgd::starts`]) and every chunk's
/// loss is the mean over the whole batch ([`SplitModel::chunk_target`]),
/// so each row's bits — and the accuracies, `count / n` — are those of
/// one attack on the whole batch (every layer of the forward computes a
/// sample independently of its batch). With one worker `model` itself is
/// attacked and nothing is cloned.
pub fn split_accuracy<M: SplitModel>(
    model: &mut M,
    x: &Tensor,
    labels: &[usize],
    pgd: &Pgd,
    rng: &mut StdRng,
    (outer, inner): (usize, usize),
) -> SplitAccuracy {
    let n = labels.len();
    if n == 0 {
        return SplitAccuracy {
            clean: 0.0,
            adv: 0.0,
            adv_x: x.clone(),
        };
    }
    let starts = pgd.starts(x.shape(), rng);
    let chunk = |model: &mut M, (lo, hi): (usize, usize)| {
        let (x, labels) = (rows(x, lo, hi), &labels[lo..hi]);
        let starts: Vec<Tensor> = starts.iter().map(|s| rows(s, lo, hi)).collect();
        let mut target = model.chunk_target(n);
        let clean = count_correct(&mut *target, &x, labels);
        let adv_x = pgd.attack_from(&mut *target, &x, labels, &starts);
        (clean, count_correct(&mut *target, &adv_x, labels), adv_x)
    };
    let workers = outer.clamp(1, n);
    let parts = if workers == 1 {
        vec![chunk(model, (0, n))]
    } else {
        let bounds: Vec<(usize, usize)> = (0..workers)
            .map(|k| (k * n / workers, (k + 1) * n / workers))
            .collect();
        let model = &*model;
        fp_tensor::parallel::parallel_map(&bounds, workers, |_, &bound| {
            let mut copy = model.clone();
            copy.set_backend(&fp_tensor::backend_for_threads(inner));
            chunk(&mut copy, bound)
        })
    };
    let (clean, adv) = parts
        .iter()
        .fold((0, 0), |(c, a), part| (c + part.0, a + part.1));
    let mut adv_x = Vec::with_capacity(x.numel());
    for part in &parts {
        adv_x.extend_from_slice(part.2.data());
    }
    SplitAccuracy {
        clean: clean as f32 / n as f32,
        adv: adv as f32 / n as f32,
        adv_x: Tensor::from_vec(adv_x, x.shape()),
    }
}

/// Rows `[lo, hi)` of `t` along its leading (batch) dimension.
fn rows(t: &Tensor, lo: usize, hi: usize) -> Tensor {
    let per: usize = t.shape()[1..].iter().product();
    let mut shape = t.shape().to_vec();
    shape[0] = hi - lo;
    Tensor::from_vec(t.data()[lo * per..hi * per].to_vec(), &shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_data::{generate, SynthConfig};
    use fp_nn::models;

    #[test]
    fn report_orders_clean_pgd_apgd() {
        // Even an untrained model must satisfy the attack-strength ordering
        // in expectation; check with a trained-for-a-moment model.
        let mut rng = fp_tensor::seeded_rng(0);
        let mut model = models::tiny_vgg(3, 8, 4, &[8, 16], &mut rng);
        let ds = generate(&SynthConfig::tiny(4, 8), 5);
        // Quick training: a few SGD steps on clean data.
        let mut opt = fp_nn::Sgd::new(0.9, 0.0);
        let ce = fp_nn::CrossEntropyLoss::new();
        let mut it =
            fp_data::BatchIter::new(&ds.train, &(0..ds.train.len()).collect::<Vec<_>>(), 16, 0);
        for _ in 0..30 {
            let (x, y) = it.next_batch();
            let logits = model.forward(&x, fp_nn::Mode::Train);
            let (_, dl) = ce.forward(&logits, &y);
            model.zero_grad();
            model.backward(&dl);
            opt.step(&mut model.params_mut(), 0.05);
        }
        let report = evaluate_robustness(
            &mut model,
            &ds.test,
            &PgdConfig::fast(8.0 / 255.0),
            &ApgdConfig::fast(8.0 / 255.0),
            16,
            0,
        );
        assert!(report.clean_acc > 0.4, "model failed to learn: {report}");
        assert!(
            report.clean_acc >= report.pgd_acc - 0.05,
            "ordering violated: {report}"
        );
        assert!(report.pgd_acc <= 1.0 && report.apgd_acc <= 1.0);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// An ℓ2 ball (its per-sample normalisation exposes a wrong loss
    /// denominator, which the ℓ∞ sign step hides) with a clamp, a random
    /// start and, for `restarts > 1`, per-sample best-of-restarts.
    fn l2_pgd(restarts: usize) -> Pgd {
        Pgd::new(PgdConfig {
            steps: 3,
            alpha: None,
            ball: crate::NormBall::L2(0.8),
            random_start: true,
            restarts,
            clamp: Some((0.0, 1.0)),
        })
    }

    /// Checks every worker count in `1..=4` against the one-chunk run of
    /// `model` on the first `n` rows of `(x, labels)`: the adversarial
    /// rows, concatenated, and both accuracies, bit for bit.
    fn assert_split_matches_one_chunk<M: SplitModel>(
        model: &M,
        x: &Tensor,
        labels: &[usize],
        pgd: &Pgd,
        what: &str,
    ) {
        for n in [0, 1, 2, 31, 63, 64] {
            let x = rows(x, 0, n);
            let labels = &labels[..n];
            let run = |workers| {
                let mut rng = seeded_rng(n as u64);
                split_accuracy(&mut model.clone(), &x, labels, pgd, &mut rng, (workers, 1))
            };
            let one = run(1);
            assert_eq!(one.adv_x.shape(), x.shape(), "{what} n {n}");
            for workers in 2..=4 {
                let split = run(workers);
                let tag = format!("{what} n {n} workers {workers}");
                assert_eq!(
                    bits(&split.adv_x),
                    bits(&one.adv_x),
                    "{tag}: adversarial rows"
                );
                assert_eq!(split.clean.to_bits(), one.clean.to_bits(), "{tag}: clean");
                assert_eq!(split.adv.to_bits(), one.adv.to_bits(), "{tag}: adv");
            }
        }
    }

    /// `split_accuracy` over `ModelTarget`: chunked runs equal the
    /// one-chunk run, whose figures are the unsplit attack's.
    #[test]
    fn split_validation_model_target_matches_one_chunk() {
        let mut rng = fp_tensor::seeded_rng(3);
        let mut model = models::tiny_vgg(3, 8, 4, &[4, 8], &mut rng);
        let x = Tensor::rand_uniform(&[64, 3, 8, 8], 0.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..64).map(|i| (i * 7 + i / 5) % 4).collect();
        for restarts in [1, 2] {
            let pgd = l2_pgd(restarts);
            let what = format!("restarts {restarts}");
            assert_split_matches_one_chunk(&model, &x, &labels, &pgd, &what);
            // The one-chunk run is the plain, unsplit attack.
            let mut rng = seeded_rng(64);
            let one = split_accuracy(&mut model.clone(), &x, &labels, &pgd, &mut rng, (1, 1));
            let mut rng = seeded_rng(64);
            let mut target = ModelTarget::new(&mut model);
            let adv = pgd.attack(&mut target, &x, &labels, &mut rng);
            assert_eq!(bits(&one.adv_x), bits(&adv), "{what}: unsplit attack");
            let clean = fp_nn::accuracy(&target.logits(&x), &labels);
            assert_eq!(one.clean.to_bits(), clean.to_bits(), "{what}: clean");
            let adv = fp_nn::accuracy(&target.logits(&adv), &labels);
            assert_eq!(one.adv.to_bits(), adv.to_bits(), "{what}: adv");
        }
    }

    #[test]
    fn clean_accuracy_matches_report() {
        let mut rng = fp_tensor::seeded_rng(1);
        let mut model = models::tiny_vgg(3, 8, 4, &[4, 8], &mut rng);
        let ds = generate(&SynthConfig::tiny(4, 8), 6);
        let acc = clean_accuracy(&mut model, &ds.test, 8);
        let report = evaluate_robustness(
            &mut model,
            &ds.test,
            &PgdConfig::fast(0.01),
            &ApgdConfig::fast(0.01),
            8,
            1,
        );
        assert!((acc - report.clean_acc).abs() < 1e-6);
    }
}
