//! VGG-family cascades.
//!
//! A VGG atom is one convolution with its activation (and the trailing
//! max-pool when the conv closes a stage); the classifier layers are their
//! own atoms so the partitioner can merge them freely (the paper's Table 7
//! shows `conv13 + Linear1..3` fused into module 7).

use crate::cascade::CascadeModel;
use crate::spec::{AtomSpec, LayerKind, LayerSpec, GROUP_INPUT, GROUP_OUTPUT};
use rand::Rng;

/// Configuration of a VGG-style cascade.
#[derive(Debug, Clone)]
pub struct VggConfig {
    /// Input channels.
    pub in_channels: usize,
    /// Square input resolution.
    pub input_hw: usize,
    /// Number of classes.
    pub n_classes: usize,
    /// `(convs, width)` per stage; a 2× max-pool follows each stage.
    pub stages: Vec<(usize, usize)>,
    /// Insert BatchNorm after each convolution.
    pub use_bn: bool,
    /// Hidden fully connected widths after the conv trunk.
    pub fc_dims: Vec<usize>,
    /// Dropout probability between hidden FC layers (0 disables).
    pub dropout: f32,
}

impl VggConfig {
    /// The classic VGG16 configuration for 32×32 inputs (paper §7.1):
    /// stages 2·64, 2·128, 3·256, 3·512, 3·512 and a 512-512 classifier.
    pub fn vgg16_cifar(n_classes: usize) -> Self {
        VggConfig {
            in_channels: 3,
            input_hw: 32,
            n_classes,
            stages: vec![(2, 64), (2, 128), (3, 256), (3, 512), (3, 512)],
            use_bn: false,
            fc_dims: vec![512, 512],
            dropout: 0.5,
        }
    }

    /// VGG13: stages 2·64, 2·128, 2·256, 2·512, 2·512.
    pub fn vgg13_cifar(n_classes: usize) -> Self {
        VggConfig {
            stages: vec![(2, 64), (2, 128), (2, 256), (2, 512), (2, 512)],
            ..Self::vgg16_cifar(n_classes)
        }
    }

    /// VGG11: stages 1·64, 1·128, 2·256, 2·512, 2·512.
    pub fn vgg11_cifar(n_classes: usize) -> Self {
        VggConfig {
            stages: vec![(1, 64), (1, 128), (2, 256), (2, 512), (2, 512)],
            ..Self::vgg16_cifar(n_classes)
        }
    }

    /// A tiny trainable variant: one conv per stage, batch-norm on, no
    /// hidden FCs (GAP-style flatten into the classifier).
    pub fn tiny(in_channels: usize, input_hw: usize, n_classes: usize, widths: &[usize]) -> Self {
        VggConfig {
            in_channels,
            input_hw,
            n_classes,
            stages: widths.iter().map(|&w| (1, w)).collect(),
            use_bn: true,
            fc_dims: Vec::new(),
            dropout: 0.0,
        }
    }
}

/// Builds the atom specs for a VGG configuration.
///
/// # Panics
///
/// Panics if the input resolution is not divisible by `2^stages`.
pub fn vgg_atom_specs(cfg: &VggConfig) -> Vec<AtomSpec> {
    assert!(!cfg.stages.is_empty(), "vgg needs at least one stage");
    assert_eq!(
        cfg.input_hw % (1 << cfg.stages.len()),
        0,
        "input {} not divisible by 2^{} stages",
        cfg.input_hw,
        cfg.stages.len()
    );
    let mut atoms = Vec::new();
    let mut group = GROUP_INPUT;
    let mut next_group = 1usize;
    let mut c_in = cfg.in_channels;
    let mut conv_idx = 0usize;
    for (stage_idx, &(n_convs, width)) in cfg.stages.iter().enumerate() {
        for ci in 0..n_convs {
            conv_idx += 1;
            let out_group = next_group;
            next_group += 1;
            let mut layers = vec![LayerSpec::new(
                LayerKind::Conv2d {
                    c_in,
                    c_out: width,
                    k: 3,
                    stride: 1,
                    pad: 1,
                    bias: !cfg.use_bn,
                },
                group,
                out_group,
            )];
            if cfg.use_bn {
                layers.push(LayerSpec::same_group(
                    LayerKind::BatchNorm2d { c: width },
                    out_group,
                ));
            }
            layers.push(LayerSpec::same_group(LayerKind::Relu, out_group));
            // Pool closes the stage, attached as a suffix of its last conv
            // (the convention under which the paper's Table 7 module-1
            // memory reproduces).
            if ci == n_convs - 1 {
                layers.push(LayerSpec::same_group(
                    LayerKind::MaxPool2d { k: 2, stride: 2 },
                    out_group,
                ));
            }
            atoms.push(AtomSpec::new(format!("conv{conv_idx}"), layers));
            c_in = width;
            group = out_group;
            let _ = stage_idx;
        }
    }
    let final_hw = cfg.input_hw >> cfg.stages.len();
    let flat = c_in * final_hw * final_hw;
    // Classifier atoms.
    let mut d_in = flat;
    let mut in_spatial = final_hw * final_hw;
    let mut first = true;
    for (i, &d_out) in cfg.fc_dims.iter().enumerate() {
        let out_group = next_group;
        next_group += 1;
        let mut layers = Vec::new();
        if first {
            layers.push(LayerSpec::same_group(LayerKind::Flatten, group));
        }
        layers.push(LayerSpec::new(
            LayerKind::Linear {
                d_in,
                d_out,
                in_spatial,
            },
            group,
            out_group,
        ));
        layers.push(LayerSpec::same_group(LayerKind::Relu, out_group));
        if cfg.dropout > 0.0 {
            layers.push(LayerSpec::same_group(
                LayerKind::Dropout { p: cfg.dropout },
                out_group,
            ));
        }
        atoms.push(AtomSpec::new(format!("fc{}", i + 1), layers));
        d_in = d_out;
        in_spatial = 1;
        group = out_group;
        first = false;
    }
    // Output layer.
    let mut layers = Vec::new();
    if first {
        layers.push(LayerSpec::same_group(LayerKind::Flatten, group));
    }
    layers.push(LayerSpec::new(
        LayerKind::Linear {
            d_in,
            d_out: cfg.n_classes,
            in_spatial,
        },
        group,
        GROUP_OUTPUT,
    ));
    atoms.push(AtomSpec::new(
        format!("fc{}", cfg.fc_dims.len() + 1),
        layers,
    ));
    atoms
}

/// Full-scale VGG16 spec for CIFAR-10 (10 classes) — cost-model only.
pub fn vgg16_spec_cifar() -> Vec<AtomSpec> {
    vgg_atom_specs(&VggConfig::vgg16_cifar(10))
}

/// Full-scale VGG13 spec for CIFAR-10 — cost-model / FedDF zoo.
pub fn vgg13_spec() -> Vec<AtomSpec> {
    vgg_atom_specs(&VggConfig::vgg13_cifar(10))
}

/// Full-scale VGG11 spec for CIFAR-10 — cost-model / FedDF zoo.
pub fn vgg11_spec() -> Vec<AtomSpec> {
    vgg_atom_specs(&VggConfig::vgg11_cifar(10))
}

/// Builds a tiny trainable VGG cascade (one conv per stage, BN on).
///
/// `widths` gives the per-stage channel counts; the input is
/// `[in_channels, input_hw, input_hw]`.
pub fn tiny_vgg<R: Rng + ?Sized>(
    in_channels: usize,
    input_hw: usize,
    n_classes: usize,
    widths: &[usize],
    rng: &mut R,
) -> CascadeModel {
    let cfg = VggConfig::tiny(in_channels, input_hw, n_classes, widths);
    let specs = vgg_atom_specs(&cfg);
    super::instantiate(&specs, &[in_channels, input_hw, input_hw], n_classes, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::cascade_output_shape;

    #[test]
    fn vgg16_has_13_convs_and_3_fcs() {
        let specs = vgg16_spec_cifar();
        assert_eq!(specs.len(), 16);
        assert_eq!(specs[0].name, "conv1");
        assert_eq!(specs[12].name, "conv13");
        assert_eq!(specs[15].name, "fc3");
    }

    #[test]
    fn vgg16_pipeline_ends_in_10_logits() {
        let out = cascade_output_shape(&vgg16_spec_cifar(), &[3, 32, 32]);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn vgg16_module1_macs_match_table7() {
        // Table 7: module 1 = conv1+conv2, "2.6 G FLOPs" at batch 64 ⇒
        // per-sample MACs ≈ 39.6 M.
        let specs = vgg16_spec_cifar();
        let m1 = specs[0].macs(&[3, 32, 32]) + specs[1].macs(&[64, 32, 32]);
        let batch_flops = m1 * 64;
        assert!(
            (2_400_000_000..2_700_000_000u64).contains(&batch_flops),
            "module-1 FLOPs {batch_flops}"
        );
    }

    #[test]
    fn tiny_config_downscales() {
        let specs = vgg_atom_specs(&VggConfig::tiny(3, 16, 4, &[8, 16]));
        // 2 conv atoms + classifier.
        assert_eq!(specs.len(), 3);
        assert_eq!(cascade_output_shape(&specs, &[3, 16, 16]), vec![4]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_non_divisible_input() {
        vgg_atom_specs(&VggConfig::tiny(3, 10, 4, &[8, 16, 32]));
    }
}
