//! Synthetic class-conditional image generation.

use crate::dataset::Dataset;
use fp_tensor::{seeded_rng, NormalSampler};

/// Configuration of the synthetic dataset generator.
///
/// Samples of class `y` are `clamp(template_y + a·smooth + b·pixel, 0, 1)`,
/// where `template_y` is a per-class smooth random field, `smooth` is a
/// per-sample smooth field (spatially correlated nuisance), and `pixel` is
/// white noise. Smaller noise gives an easier task; the defaults leave
/// enough class overlap that adversarial training visibly trades clean
/// accuracy for robustness, mirroring CIFAR-10 behaviour.
#[derive(Debug, Clone, Copy)]
pub struct SynthConfig {
    /// Number of classes.
    pub n_classes: usize,
    /// Image channels.
    pub channels: usize,
    /// Square resolution.
    pub hw: usize,
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Amplitude of the per-sample smooth nuisance field.
    pub smooth_noise: f32,
    /// Amplitude of per-pixel white noise.
    pub pixel_noise: f32,
    /// Coarse grid size of the smooth fields (≥ 2).
    pub grid: usize,
}

impl SynthConfig {
    /// A CIFAR-10-shaped configuration (10 classes, 3×32×32).
    pub fn cifar_like() -> Self {
        SynthConfig {
            n_classes: 10,
            channels: 3,
            hw: 32,
            train_per_class: 500,
            test_per_class: 100,
            smooth_noise: 0.35,
            pixel_noise: 0.08,
            grid: 4,
        }
    }

    /// A Caltech-256-shaped configuration at reduced resolution
    /// (256 classes, 3×32×32 instead of 3×224×224, so a training run stays
    /// seconds-scale).
    pub fn caltech_like() -> Self {
        SynthConfig {
            n_classes: 256,
            channels: 3,
            hw: 32,
            train_per_class: 60,
            test_per_class: 12,
            smooth_noise: 0.4,
            pixel_noise: 0.08,
            grid: 4,
        }
    }

    /// A tiny configuration for fast tests.
    pub fn tiny(n_classes: usize, hw: usize) -> Self {
        SynthConfig {
            n_classes,
            channels: 3,
            hw,
            train_per_class: 24,
            test_per_class: 8,
            smooth_noise: 0.3,
            pixel_noise: 0.05,
            grid: 2,
        }
    }
}

/// A generated train/test pair plus a held-out validation split.
///
/// `val` is carved from training-distribution data and serves the server's
/// Adaptive Perturbation Adjustment, which monitors validation clean and
/// adversarial accuracy (paper §6.2).
#[derive(Debug, Clone)]
pub struct SynthDataset {
    /// Training split.
    pub train: Dataset,
    /// Validation split (same distribution as train).
    pub val: Dataset,
    /// Test split.
    pub test: Dataset,
}

/// Generates a deterministic synthetic dataset.
///
/// The same `(config, seed)` pair always produces identical data.
pub fn generate(cfg: &SynthConfig, seed: u64) -> SynthDataset {
    assert!(cfg.n_classes >= 2, "need at least two classes");
    assert!(cfg.grid >= 2, "grid must be at least 2");
    assert!(cfg.hw >= cfg.grid, "resolution below grid size");
    let mut rng = seeded_rng(seed ^ 0x5EED_DA7A);
    let mut normal = NormalSampler::new();
    let per_img = cfg.channels * cfg.hw * cfg.hw;

    // Per-class smooth templates, centred at 0.5 with ±0.35 swing.
    let templates: Vec<Vec<f32>> = (0..cfg.n_classes)
        .map(|_| smooth_field(cfg, 0.35, &mut rng, &mut normal, 0.5))
        .collect();

    let make_split = |per_class: usize, rng: &mut rand::rngs::StdRng| {
        let n = cfg.n_classes * per_class;
        let mut data = Vec::with_capacity(n * per_img);
        let mut labels = Vec::with_capacity(n);
        let mut normal = NormalSampler::new();
        #[allow(clippy::needless_range_loop)] // index shared across several buffers
        for y in 0..cfg.n_classes {
            for _ in 0..per_class {
                let nuisance = smooth_field(cfg, cfg.smooth_noise, rng, &mut normal, 0.0);
                for i in 0..per_img {
                    let px = templates[y][i] + nuisance[i] + cfg.pixel_noise * normal.sample(rng);
                    data.push(px.clamp(0.0, 1.0));
                }
                labels.push(y);
            }
        }
        Dataset::new(data, labels, &[cfg.channels, cfg.hw, cfg.hw], cfg.n_classes)
    };

    let train = make_split(cfg.train_per_class, &mut rng);
    let val_per_class = (cfg.test_per_class / 2).max(1);
    let val = make_split(val_per_class, &mut rng);
    let test = make_split(cfg.test_per_class, &mut rng);
    SynthDataset { train, val, test }
}

/// A smooth random field: a coarse `grid × grid` Gaussian grid per channel,
/// bilinearly upsampled to `hw × hw`, scaled by `amp`, shifted by `offset`.
fn smooth_field(
    cfg: &SynthConfig,
    amp: f32,
    rng: &mut rand::rngs::StdRng,
    normal: &mut NormalSampler,
    offset: f32,
) -> Vec<f32> {
    let g = cfg.grid;
    let mut out = Vec::with_capacity(cfg.channels * cfg.hw * cfg.hw);
    for _c in 0..cfg.channels {
        let coarse: Vec<f32> = (0..g * g).map(|_| normal.sample(rng)).collect();
        for yy in 0..cfg.hw {
            // Map pixel to coarse coordinates.
            let fy = yy as f32 / (cfg.hw - 1).max(1) as f32 * (g - 1) as f32;
            let y0 = fy.floor() as usize;
            let y1 = (y0 + 1).min(g - 1);
            let ty = fy - y0 as f32;
            for xx in 0..cfg.hw {
                let fx = xx as f32 / (cfg.hw - 1).max(1) as f32 * (g - 1) as f32;
                let x0 = fx.floor() as usize;
                let x1 = (x0 + 1).min(g - 1);
                let tx = fx - x0 as f32;
                let v00 = coarse[y0 * g + x0];
                let v01 = coarse[y0 * g + x1];
                let v10 = coarse[y1 * g + x0];
                let v11 = coarse[y1 * g + x1];
                let v = v00 * (1.0 - ty) * (1.0 - tx)
                    + v01 * (1.0 - ty) * tx
                    + v10 * ty * (1.0 - tx)
                    + v11 * ty * tx;
                out.push(offset + amp * v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::tiny(3, 8);
        let a = generate(&cfg, 42);
        let b = generate(&cfg, 42);
        assert_eq!(a.train.x(0).data(), b.train.x(0).data());
        assert_eq!(a.test.labels(), b.test.labels());
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SynthConfig::tiny(3, 8);
        let a = generate(&cfg, 1);
        let b = generate(&cfg, 2);
        assert_ne!(a.train.x(0).data(), b.train.x(0).data());
    }

    #[test]
    fn sizes_and_ranges() {
        let cfg = SynthConfig::tiny(4, 8);
        let ds = generate(&cfg, 0);
        assert_eq!(ds.train.len(), 4 * 24);
        assert_eq!(ds.test.len(), 4 * 8);
        assert_eq!(ds.train.sample_shape(), &[3, 8, 8]);
        let x = ds.train.x(0);
        assert!(x.min() >= 0.0 && x.max() <= 1.0, "pixels in [0,1]");
    }

    #[test]
    fn classes_are_balanced() {
        let cfg = SynthConfig::tiny(4, 8);
        let ds = generate(&cfg, 3);
        for y in 0..4 {
            assert_eq!(ds.train.indices_of_class(y).len(), 24);
        }
    }

    #[test]
    fn classes_are_separable_by_template() {
        // Nearest-template classification on clean data should beat chance
        // by a wide margin — the task must be learnable.
        let cfg = SynthConfig::tiny(4, 8);
        let ds = generate(&cfg, 9);
        // Estimate templates from train means.
        let per = 3 * 8 * 8;
        let mut means = vec![vec![0.0f32; per]; 4];
        #[allow(clippy::needless_range_loop)] // index shared across several buffers
        for y in 0..4 {
            let idx = ds.train.indices_of_class(y);
            for &i in &idx {
                for (m, v) in means[y].iter_mut().zip(ds.train.x(i).data()) {
                    *m += v / idx.len() as f32;
                }
            }
        }
        let mut correct = 0;
        for i in 0..ds.test.len() {
            let x = ds.test.x(i);
            let best = (0..4)
                .min_by(|&a, &b| {
                    let da: f32 = means[a]
                        .iter()
                        .zip(x.data())
                        .map(|(m, v)| (m - v).powi(2))
                        .sum();
                    let db: f32 = means[b]
                        .iter()
                        .zip(x.data())
                        .map(|(m, v)| (m - v).powi(2))
                        .sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if best == ds.test.label(i) {
                correct += 1;
            }
        }
        let acc = correct as f32 / ds.test.len() as f32;
        assert!(acc > 0.6, "nearest-template accuracy {acc} too low");
    }
}
