//! The model zoo: cascaded atom models, built from specs.
//!
//! Every architecture is first described as a list of [`AtomSpec`]s and then
//! instantiated with [`instantiate`]. This single path serves three needs:
//!
//! * full-scale paper models (VGG16 on CIFAR-10, ResNet34 on Caltech-256)
//!   exist as **specs only** for the hardware cost model — no weights are
//!   ever allocated for them;
//! * tiny trainable variants (same topology, reduced width/resolution) are
//!   instantiated for the real training experiments;
//! * sub-model extraction (HeteroFL/FedDrop/FedRolex) slices specs and
//!   re-instantiates, guaranteeing the sliced network is structurally valid.

mod cnn;
mod resnet;
mod vgg;

pub use cnn::{cnn_atom_specs, tiny_cnn, CnnConfig};
pub use resnet::{
    resnet10_spec, resnet18_spec, resnet34_spec_caltech, resnet_atom_specs, tiny_resnet,
    ResNetConfig,
};
pub use vgg::{tiny_vgg, vgg11_spec, vgg13_spec, vgg16_spec_cifar, vgg_atom_specs, VggConfig};

use crate::cascade::CascadeModel;
use crate::layer::Layer;
use crate::layers::basic_block::BasicBlock;
use crate::layers::bn::BatchNorm2d;
use crate::layers::conv::Conv2d;
use crate::layers::dropout::Dropout;
use crate::layers::flatten::Flatten;
use crate::layers::linear::Linear;
use crate::layers::pool::{GlobalAvgPool, MaxPool2d};
use crate::layers::relu::ReLU;
use crate::layers::sequential::Sequential;
use crate::spec::{AtomSpec, LayerKind, LayerSpec};
use rand::Rng;

/// Instantiates a trainable [`CascadeModel`] from atom specs.
///
/// `input_shape` is the per-sample `[c, h, w]`; `n_classes` must match the
/// final linear layer's output.
///
/// # Panics
///
/// Panics if a `Residual` spec does not match the BasicBlock pattern
/// (`conv-bn-relu-conv-bn` with an empty or `conv-bn` shortcut), or if the
/// spec pipeline is inconsistent with `input_shape`.
pub fn instantiate<R: Rng + ?Sized>(
    specs: &[AtomSpec],
    input_shape: &[usize],
    n_classes: usize,
    rng: &mut R,
) -> CascadeModel {
    // Validate the pipeline end-to-end before building.
    let out = crate::spec::cascade_output_shape(specs, input_shape);
    assert_eq!(out, vec![n_classes], "spec pipeline does not end in logits");
    let mut atoms = Vec::with_capacity(specs.len());
    for atom_spec in specs {
        let mut seq = Sequential::new();
        for (i, ls) in atom_spec.layers.iter().enumerate() {
            let name = format!("{}.{}", atom_spec.name, i);
            seq.add(instantiate_layer(ls, &name, rng));
        }
        atoms.push((atom_spec.name.clone(), seq));
    }
    CascadeModel::new(atoms, input_shape, n_classes)
}

fn instantiate_layer<R: Rng + ?Sized>(spec: &LayerSpec, name: &str, rng: &mut R) -> Box<dyn Layer> {
    match &spec.kind {
        LayerKind::Conv2d {
            c_in,
            c_out,
            k,
            stride,
            pad,
            bias,
        } => Box::new(Conv2d::new(
            name,
            *c_in,
            *c_out,
            *k,
            *stride,
            *pad,
            *bias,
            spec.in_group,
            spec.out_group,
            rng,
        )),
        LayerKind::Linear {
            d_in,
            d_out,
            in_spatial,
        } => Box::new(Linear::new(
            name,
            *d_in,
            *d_out,
            *in_spatial,
            spec.in_group,
            spec.out_group,
            rng,
        )),
        LayerKind::BatchNorm2d { c } => Box::new(BatchNorm2d::new(name, *c, spec.out_group)),
        LayerKind::Relu => Box::new(ReLU::new(spec.out_group)),
        LayerKind::MaxPool2d { k, stride } => Box::new(MaxPool2d::new(*k, *stride, spec.out_group)),
        LayerKind::GlobalAvgPool => Box::new(GlobalAvgPool::new(spec.out_group)),
        LayerKind::Flatten => Box::new(Flatten::new(spec.out_group)),
        LayerKind::Dropout { p } => Box::new(Dropout::new(*p, spec.out_group, rng.gen())),
        LayerKind::Residual { block, shortcut } => {
            Box::new(basic_block_from_spec(spec, block, shortcut, name, rng))
        }
    }
}

fn basic_block_from_spec<R: Rng + ?Sized>(
    spec: &LayerSpec,
    block: &[LayerSpec],
    shortcut: &[LayerSpec],
    name: &str,
    rng: &mut R,
) -> BasicBlock {
    assert_eq!(block.len(), 5, "BasicBlock pattern is conv-bn-relu-conv-bn");
    let (c_in, c_out, stride) = match &block[0].kind {
        LayerKind::Conv2d {
            c_in,
            c_out,
            stride,
            ..
        } => (*c_in, *c_out, *stride),
        other => panic!("BasicBlock must start with a conv, got {other:?}"),
    };
    let needs_projection = stride != 1 || c_in != c_out;
    assert_eq!(
        !shortcut.is_empty(),
        needs_projection,
        "shortcut presence must match shape change"
    );
    BasicBlock::new(
        name,
        c_in,
        c_out,
        stride,
        spec.in_group,
        spec.out_group,
        rng,
    )
}

/// Total parameter count implied by a list of atom specs.
pub fn spec_param_count(specs: &[AtomSpec]) -> usize {
    specs.iter().map(AtomSpec::param_count).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Mode;
    use fp_tensor::Tensor;

    #[test]
    fn instantiated_model_matches_spec_params() {
        let mut rng = fp_tensor::seeded_rng(0);
        let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[4, 8]));
        let model = instantiate(&specs, &[3, 8, 8], 4, &mut rng);
        assert_eq!(model.param_count(), spec_param_count(&specs));
    }

    #[test]
    fn tiny_resnet_runs() {
        let mut rng = fp_tensor::seeded_rng(1);
        let mut m = tiny_resnet(3, 8, 4, &[4, 8], &mut rng);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        assert_eq!(m.forward(&x, Mode::Eval).shape(), &[2, 4]);
    }

    #[test]
    fn tiny_cnn_runs() {
        let mut rng = fp_tensor::seeded_rng(2);
        let mut m = tiny_cnn(3, 8, 4, &[4, 8], &mut rng);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        assert_eq!(m.forward(&x, Mode::Eval).shape(), &[2, 4]);
    }

    #[test]
    #[should_panic(expected = "does not end in logits")]
    fn instantiate_rejects_wrong_classes() {
        let mut rng = fp_tensor::seeded_rng(0);
        let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[4, 8]));
        instantiate(&specs, &[3, 8, 8], 5, &mut rng);
    }

    #[test]
    fn full_scale_specs_have_paper_param_counts() {
        // VGG16 (CIFAR-10 variant): ~15 M parameters.
        let p = spec_param_count(&vgg16_spec_cifar());
        assert!((14_000_000..16_500_000).contains(&p), "vgg16 params {p}");
        // ResNet34: ~21.3 M parameters (ImageNet-style, 256 classes).
        let p = spec_param_count(&resnet34_spec_caltech());
        assert!((20_500_000..22_500_000).contains(&p), "resnet34 params {p}");
    }
}
