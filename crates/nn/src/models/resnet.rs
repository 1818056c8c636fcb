//! ResNet-family cascades.
//!
//! A ResNet atom is a [`Sequential`](crate::Sequential) holding one
//! residual [`BasicBlock`](crate::BasicBlock) (paper §6.1); the stem
//! convolution and the classifier are their own atoms.

use crate::cascade::CascadeModel;
use crate::spec::{AtomSpec, LayerKind, LayerSpec, GROUP_INPUT, GROUP_OUTPUT};
use rand::Rng;

/// Configuration of a ResNet-style cascade.
#[derive(Debug, Clone)]
pub struct ResNetConfig {
    /// Input channels.
    pub in_channels: usize,
    /// Square input resolution.
    pub input_hw: usize,
    /// Number of classes.
    pub n_classes: usize,
    /// Blocks per stage (ResNet34 = `[3, 4, 6, 3]`).
    pub blocks: Vec<usize>,
    /// Channel width per stage (ResNet34 = `[64, 128, 256, 512]`).
    pub widths: Vec<usize>,
    /// ImageNet-style stem (7×7 stride-2 conv + 3×3 stride-2 max-pool)
    /// versus CIFAR-style stem (3×3 stride-1 conv).
    pub imagenet_stem: bool,
}

impl ResNetConfig {
    /// ResNet34 for 224×224 inputs (paper's Caltech-256 backbone).
    pub fn resnet34(n_classes: usize) -> Self {
        ResNetConfig {
            in_channels: 3,
            input_hw: 224,
            n_classes,
            blocks: vec![3, 4, 6, 3],
            widths: vec![64, 128, 256, 512],
            imagenet_stem: true,
        }
    }

    /// ResNet18 (FedDF zoo member).
    pub fn resnet18(n_classes: usize) -> Self {
        ResNetConfig {
            blocks: vec![2, 2, 2, 2],
            ..Self::resnet34(n_classes)
        }
    }

    /// ResNet10 (FedDF zoo member).
    pub fn resnet10(n_classes: usize) -> Self {
        ResNetConfig {
            blocks: vec![1, 1, 1, 1],
            ..Self::resnet34(n_classes)
        }
    }

    /// A tiny trainable variant: one block per stage, CIFAR stem.
    pub fn tiny(in_channels: usize, input_hw: usize, n_classes: usize, widths: &[usize]) -> Self {
        ResNetConfig {
            in_channels,
            input_hw,
            n_classes,
            blocks: vec![1; widths.len()],
            widths: widths.to_vec(),
            imagenet_stem: false,
        }
    }
}

fn conv_spec(
    c_in: usize,
    c_out: usize,
    k: usize,
    stride: usize,
    pad: usize,
    g_in: usize,
    g_out: usize,
) -> LayerSpec {
    LayerSpec::new(
        LayerKind::Conv2d {
            c_in,
            c_out,
            k,
            stride,
            pad,
            bias: false,
        },
        g_in,
        g_out,
    )
}

fn block_spec(c_in: usize, c_out: usize, stride: usize, g_in: usize, g_out: usize) -> LayerSpec {
    let block = vec![
        conv_spec(c_in, c_out, 3, stride, 1, g_in, g_out),
        LayerSpec::same_group(LayerKind::BatchNorm2d { c: c_out }, g_out),
        LayerSpec::same_group(LayerKind::Relu, g_out),
        conv_spec(c_out, c_out, 3, 1, 1, g_out, g_out),
        LayerSpec::same_group(LayerKind::BatchNorm2d { c: c_out }, g_out),
    ];
    let shortcut = if stride != 1 || c_in != c_out {
        vec![
            conv_spec(c_in, c_out, 1, stride, 0, g_in, g_out),
            LayerSpec::same_group(LayerKind::BatchNorm2d { c: c_out }, g_out),
        ]
    } else {
        Vec::new()
    };
    LayerSpec::new(LayerKind::Residual { block, shortcut }, g_in, g_out)
}

/// Builds the atom specs for a ResNet configuration.
///
/// # Panics
///
/// Panics if `blocks` and `widths` lengths differ.
pub fn resnet_atom_specs(cfg: &ResNetConfig) -> Vec<AtomSpec> {
    assert_eq!(
        cfg.blocks.len(),
        cfg.widths.len(),
        "blocks/widths length mismatch"
    );
    let mut atoms = Vec::new();
    let mut next_group = 1usize;
    let stem_group = next_group;
    next_group += 1;
    let w0 = cfg.widths[0];
    let stem = if cfg.imagenet_stem {
        vec![
            conv_spec(cfg.in_channels, w0, 7, 2, 3, GROUP_INPUT, stem_group),
            LayerSpec::same_group(LayerKind::BatchNorm2d { c: w0 }, stem_group),
            LayerSpec::same_group(LayerKind::Relu, stem_group),
            LayerSpec::same_group(LayerKind::MaxPool2d { k: 2, stride: 2 }, stem_group),
        ]
    } else {
        vec![
            conv_spec(cfg.in_channels, w0, 3, 1, 1, GROUP_INPUT, stem_group),
            LayerSpec::same_group(LayerKind::BatchNorm2d { c: w0 }, stem_group),
            LayerSpec::same_group(LayerKind::Relu, stem_group),
        ]
    };
    atoms.push(AtomSpec::new("conv1", stem));

    let mut c_in = w0;
    let mut group = stem_group;
    let mut block_idx = 0usize;
    for (stage, (&n_blocks, &width)) in cfg.blocks.iter().zip(cfg.widths.iter()).enumerate() {
        for b in 0..n_blocks {
            block_idx += 1;
            let stride = if stage > 0 && b == 0 { 2 } else { 1 };
            let out_group = if stride != 1 || c_in != width {
                let g = next_group;
                next_group += 1;
                g
            } else {
                group
            };
            atoms.push(AtomSpec::new(
                format!("basicblock{block_idx}"),
                vec![block_spec(c_in, width, stride, group, out_group)],
            ));
            c_in = width;
            group = out_group;
        }
    }
    // Classifier: global average pool + linear.
    atoms.push(AtomSpec::new(
        "classifier",
        vec![
            LayerSpec::same_group(LayerKind::GlobalAvgPool, group),
            LayerSpec::new(
                LayerKind::Linear {
                    d_in: c_in,
                    d_out: cfg.n_classes,
                    in_spatial: 1,
                },
                group,
                GROUP_OUTPUT,
            ),
        ],
    ));
    atoms
}

/// Full-scale ResNet34 spec for Caltech-256 (256 classes) — cost model.
pub fn resnet34_spec_caltech() -> Vec<AtomSpec> {
    resnet_atom_specs(&ResNetConfig::resnet34(256))
}

/// Full-scale ResNet18 spec (256 classes).
pub fn resnet18_spec() -> Vec<AtomSpec> {
    resnet_atom_specs(&ResNetConfig::resnet18(256))
}

/// Full-scale ResNet10 spec (256 classes).
pub fn resnet10_spec() -> Vec<AtomSpec> {
    resnet_atom_specs(&ResNetConfig::resnet10(256))
}

/// Builds a tiny trainable ResNet cascade (one block per stage).
pub fn tiny_resnet<R: Rng + ?Sized>(
    in_channels: usize,
    input_hw: usize,
    n_classes: usize,
    widths: &[usize],
    rng: &mut R,
) -> CascadeModel {
    let cfg = ResNetConfig::tiny(in_channels, input_hw, n_classes, widths);
    let specs = resnet_atom_specs(&cfg);
    super::instantiate(&specs, &[in_channels, input_hw, input_hw], n_classes, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::cascade_output_shape;

    #[test]
    fn resnet34_has_16_blocks_plus_stem_and_classifier() {
        let specs = resnet34_spec_caltech();
        assert_eq!(specs.len(), 1 + 16 + 1);
        assert_eq!(specs[1].name, "basicblock1");
        assert_eq!(specs[16].name, "basicblock16");
    }

    #[test]
    fn resnet34_pipeline_shape() {
        let out = cascade_output_shape(&resnet34_spec_caltech(), &[3, 224, 224]);
        assert_eq!(out, vec![256]);
    }

    #[test]
    fn resnet34_stem_macs_match_table8() {
        // Table 8: module 1 = conv1(+pool), "3.9 G FLOPs" at batch 32
        // ⇒ per-sample MACs = 64·3·49·112² ≈ 118 M.
        let specs = resnet34_spec_caltech();
        let flops = specs[0].macs(&[3, 224, 224]) * 32;
        assert!(
            (3_700_000_000..4_000_000_000u64).contains(&flops),
            "stem FLOPs {flops}"
        );
    }

    #[test]
    fn block5to8_macs_match_table8_module5() {
        // Table 8 module 5 = basicblocks 5–8 at 28×28: 28.1 G at batch 32.
        let specs = resnet34_spec_caltech();
        let mut shape = vec![3usize, 224, 224];
        let mut total = 0u64;
        for (i, atom) in specs.iter().enumerate() {
            // atoms: 0 stem, 1..=16 blocks, 17 classifier.
            if (5..=8).contains(&i) {
                total += atom.macs(&shape);
            }
            shape = atom.output_shape(&shape);
        }
        let flops = total * 32;
        assert!(
            (26_000_000_000..30_000_000_000u64).contains(&flops),
            "module-5 FLOPs {flops}"
        );
    }

    #[test]
    fn downsampling_blocks_have_projection() {
        let specs = resnet_atom_specs(&ResNetConfig::tiny(3, 8, 4, &[4, 8]));
        // Stage 2's first block downsamples.
        match &specs[2].layers[0].kind {
            LayerKind::Residual { shortcut, .. } => assert!(!shortcut.is_empty()),
            other => panic!("expected residual, got {other:?}"),
        }
    }
}
