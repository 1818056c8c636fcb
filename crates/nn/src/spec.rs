//! Weight-free architecture descriptions.
//!
//! A [`LayerSpec`] describes a layer's shape bookkeeping without allocating
//! weights; an [`AtomSpec`] is a named sequence of layer specs — the
//! indivisible "atom" of FedProphet's model partitioner (paper §6.1: a layer
//! for plain networks, a residual block for ResNets).
//!
//! Specs serve three consumers:
//!
//! 1. the **hardware simulator** (`fp-hwsim`) costs full-scale VGG16 and
//!    ResNet34 from specs alone — no 100M-float allocations;
//! 2. the **sub-model slicers** (`fp-fl`) walk specs in lockstep with
//!    parameter lists to extract/aggregate channel subsets
//!    (HeteroFL/FedDrop/FedRolex);
//! 3. the **model partitioner** (`fedprophet`) groups atoms into modules
//!    under a memory budget.
//!
//! Channel groups: every spec carries `in_group`/`out_group` labels
//! identifying which "width knob" its channels belong to. Group
//! [`GROUP_INPUT`] (the network input) and [`GROUP_OUTPUT`] (the logits) are
//! never sliced by sub-model extraction.

use serde::{Deserialize, Serialize};

/// Channel group of the raw network input; never sliced.
pub const GROUP_INPUT: usize = 0;

/// Channel group of the classifier logits; never sliced.
pub const GROUP_OUTPUT: usize = usize::MAX;

/// The operation a layer performs, with its static shape parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerKind {
    /// 2-D convolution with square kernels and symmetric padding.
    Conv2d {
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Kernel size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Zero padding.
        pad: usize,
        /// Whether a bias vector is present.
        bias: bool,
    },
    /// Fully connected layer.
    Linear {
        /// Input features (`channels × in_spatial`).
        d_in: usize,
        /// Output features.
        d_out: usize,
        /// Spatial multiplicity at the flatten point (1 after global
        /// pooling); sub-model slicing removes `in_spatial` consecutive
        /// columns per dropped channel.
        in_spatial: usize,
    },
    /// Batch normalization over channels of `[b, c, h, w]`.
    BatchNorm2d {
        /// Channels.
        c: usize,
    },
    /// Rectified linear unit (in-place, no parameters).
    Relu,
    /// Max pooling with square window.
    MaxPool2d {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling `[c, h, w] → [c]`.
    GlobalAvgPool,
    /// Flattens `[c, h, w] → [c·h·w]`.
    Flatten,
    /// Dropout with probability `p` (train mode only).
    Dropout {
        /// Drop probability.
        p: f32,
    },
    /// A residual block: `relu(block(x) + shortcut(x))`.
    ///
    /// `shortcut` is empty for an identity skip connection.
    Residual {
        /// Main path.
        block: Vec<LayerSpec>,
        /// Projection path (empty = identity).
        shortcut: Vec<LayerSpec>,
    },
}

/// A layer description: operation plus channel-group labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSpec {
    /// The operation.
    pub kind: LayerKind,
    /// Channel group of the input.
    pub in_group: usize,
    /// Channel group of the output.
    pub out_group: usize,
}

impl LayerSpec {
    /// Creates a spec with explicit channel groups.
    pub fn new(kind: LayerKind, in_group: usize, out_group: usize) -> Self {
        LayerSpec {
            kind,
            in_group,
            out_group,
        }
    }

    /// Creates a spec for a shape-preserving layer within one group.
    pub fn same_group(kind: LayerKind, group: usize) -> Self {
        LayerSpec {
            kind,
            in_group: group,
            out_group: group,
        }
    }

    /// Output shape for `input` (`[c, h, w]` for image layers, `[d]` after
    /// flatten).
    ///
    /// # Panics
    ///
    /// Panics if `input` is incompatible with the layer (wrong rank or
    /// channel count).
    pub fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        match &self.kind {
            LayerKind::Conv2d {
                c_in,
                c_out,
                k,
                stride,
                pad,
                ..
            } => {
                assert_eq!(input.len(), 3, "conv input must be [c,h,w]");
                assert_eq!(input[0], *c_in, "conv channel mismatch");
                let geo = fp_tensor::Conv2dGeometry {
                    c_in: *c_in,
                    h: input[1],
                    w: input[2],
                    k: *k,
                    stride: *stride,
                    pad: *pad,
                };
                vec![*c_out, geo.h_out(), geo.w_out()]
            }
            LayerKind::Linear { d_in, d_out, .. } => {
                assert_eq!(input, [*d_in], "linear input mismatch");
                vec![*d_out]
            }
            LayerKind::BatchNorm2d { c } => {
                assert_eq!(input[0], *c, "bn channel mismatch");
                input.to_vec()
            }
            LayerKind::Relu | LayerKind::Dropout { .. } => input.to_vec(),
            LayerKind::MaxPool2d { k, stride } => {
                assert_eq!(input.len(), 3, "pool input must be [c,h,w]");
                vec![
                    input[0],
                    (input[1] - k) / stride + 1,
                    (input[2] - k) / stride + 1,
                ]
            }
            LayerKind::GlobalAvgPool => {
                assert_eq!(input.len(), 3, "gap input must be [c,h,w]");
                vec![input[0]]
            }
            LayerKind::Flatten => vec![input.iter().product()],
            LayerKind::Residual { block, shortcut } => {
                let out = propagate_shape(block, input);
                if !shortcut.is_empty() {
                    let s = propagate_shape(shortcut, input);
                    assert_eq!(out, s, "residual branch shapes disagree");
                }
                out
            }
        }
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        match &self.kind {
            LayerKind::Conv2d {
                c_in,
                c_out,
                k,
                bias,
                ..
            } => c_out * c_in * k * k + if *bias { *c_out } else { 0 },
            LayerKind::Linear { d_in, d_out, .. } => d_out * d_in + d_out,
            LayerKind::BatchNorm2d { c } => 2 * c,
            LayerKind::Residual { block, shortcut } => {
                block.iter().map(LayerSpec::param_count).sum::<usize>()
                    + shortcut.iter().map(LayerSpec::param_count).sum::<usize>()
            }
            _ => 0,
        }
    }

    /// Multiply–accumulate operations for one sample with the given input
    /// shape. Only convolutions and linear layers count (the convention
    /// under which the paper's Table 7/8 "FLOPs" figures reproduce:
    /// normalization and pooling are negligible).
    pub fn macs(&self, input: &[usize]) -> u64 {
        match &self.kind {
            LayerKind::Conv2d { c_in, c_out, k, .. } => {
                let out = self.output_shape(input);
                (*c_out as u64)
                    * (*c_in as u64)
                    * (*k as u64)
                    * (*k as u64)
                    * (out[1] as u64)
                    * (out[2] as u64)
            }
            LayerKind::Linear { d_in, d_out, .. } => (*d_in as u64) * (*d_out as u64),
            LayerKind::Residual { block, shortcut } => {
                macs_of(block, input) + macs_of(shortcut, input)
            }
            _ => 0,
        }
    }

    /// Elements of stored activation this layer's output contributes for
    /// one sample, under the accounting convention calibrated against the
    /// paper's Table 8: every layer output is stored except ReLU and
    /// Dropout, which operate in place.
    pub fn stored_activation_elems(&self, input: &[usize]) -> u64 {
        match &self.kind {
            LayerKind::Relu | LayerKind::Dropout { .. } => 0,
            LayerKind::Residual { block, shortcut } => {
                // The residual add writes into the shortcut buffer in
                // place, so only the branch activations are stored (the
                // convention under which the paper's Table 8 modules 2–7
                // reproduce within a few percent).
                stored_activations_of(block, input) + stored_activations_of(shortcut, input)
            }
            _ => self.output_shape(input).iter().product::<usize>() as u64,
        }
    }
}

/// Propagates an input shape through a sequence of layer specs.
pub fn propagate_shape(layers: &[LayerSpec], input: &[usize]) -> Vec<usize> {
    let mut shape = input.to_vec();
    for l in layers {
        shape = l.output_shape(&shape);
    }
    shape
}

fn macs_of(layers: &[LayerSpec], input: &[usize]) -> u64 {
    let mut shape = input.to_vec();
    let mut total = 0u64;
    for l in layers {
        total += l.macs(&shape);
        shape = l.output_shape(&shape);
    }
    total
}

fn stored_activations_of(layers: &[LayerSpec], input: &[usize]) -> u64 {
    let mut shape = input.to_vec();
    let mut total = 0u64;
    for l in layers {
        total += l.stored_activation_elems(&shape);
        shape = l.output_shape(&shape);
    }
    total
}

/// A named, indivisible group of layers — the unit consumed by the model
/// partitioner (a single layer for VGG-style networks, a residual block for
/// ResNets, per paper §6.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AtomSpec {
    /// Human-readable name (`"conv3"`, `"basicblock7"`, ...).
    pub name: String,
    /// The layers inside this atom, in order.
    pub layers: Vec<LayerSpec>,
}

impl AtomSpec {
    /// Creates an atom spec.
    pub fn new(name: impl Into<String>, layers: Vec<LayerSpec>) -> Self {
        AtomSpec {
            name: name.into(),
            layers,
        }
    }

    /// Output shape for a given input shape.
    pub fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        propagate_shape(&self.layers, input)
    }

    /// Total trainable scalars.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(LayerSpec::param_count).sum()
    }

    /// Per-sample MACs.
    pub fn macs(&self, input: &[usize]) -> u64 {
        macs_of(&self.layers, input)
    }

    /// Per-sample stored activation elements.
    pub fn stored_activation_elems(&self, input: &[usize]) -> u64 {
        stored_activations_of(&self.layers, input)
    }
}

/// Output shape of a full atom sequence.
pub fn cascade_output_shape(atoms: &[AtomSpec], input: &[usize]) -> Vec<usize> {
    let mut shape = input.to_vec();
    for a in atoms {
        shape = a.output_shape(&shape);
    }
    shape
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(c_in: usize, c_out: usize) -> LayerSpec {
        LayerSpec::new(
            LayerKind::Conv2d {
                c_in,
                c_out,
                k: 3,
                stride: 1,
                pad: 1,
                bias: true,
            },
            1,
            2,
        )
    }

    #[test]
    fn conv_shape_and_params() {
        let s = conv(3, 8);
        assert_eq!(s.output_shape(&[3, 16, 16]), vec![8, 16, 16]);
        assert_eq!(s.param_count(), 8 * 3 * 9 + 8);
    }

    #[test]
    fn conv_macs_match_hand_count() {
        // Paper convention check (Table 7): VGG16 module 1 = conv(3→64) +
        // conv(64→64) at 32×32 = (3·64 + 64·64)·9·1024 MACs ≈ 39.6 M.
        let c1 = LayerSpec::new(
            LayerKind::Conv2d {
                c_in: 3,
                c_out: 64,
                k: 3,
                stride: 1,
                pad: 1,
                bias: true,
            },
            0,
            1,
        );
        let c2 = LayerSpec::new(
            LayerKind::Conv2d {
                c_in: 64,
                c_out: 64,
                k: 3,
                stride: 1,
                pad: 1,
                bias: true,
            },
            1,
            2,
        );
        let total = c1.macs(&[3, 32, 32]) + c2.macs(&[64, 32, 32]);
        assert_eq!(total, (3 * 64 + 64 * 64) * 9 * 1024);
    }

    #[test]
    fn linear_shape_and_macs() {
        let s = LayerSpec::new(
            LayerKind::Linear {
                d_in: 32,
                d_out: 10,
                in_spatial: 1,
            },
            3,
            GROUP_OUTPUT,
        );
        assert_eq!(s.output_shape(&[32]), vec![10]);
        assert_eq!(s.macs(&[32]), 320);
        assert_eq!(s.param_count(), 330);
    }

    #[test]
    fn pool_and_flatten_shapes() {
        let p = LayerSpec::same_group(LayerKind::MaxPool2d { k: 2, stride: 2 }, 1);
        assert_eq!(p.output_shape(&[8, 16, 16]), vec![8, 8, 8]);
        let g = LayerSpec::same_group(LayerKind::GlobalAvgPool, 1);
        assert_eq!(g.output_shape(&[8, 4, 4]), vec![8]);
        let f = LayerSpec::same_group(LayerKind::Flatten, 1);
        assert_eq!(f.output_shape(&[8, 2, 2]), vec![32]);
    }

    #[test]
    fn relu_contributes_no_stored_activation() {
        let r = LayerSpec::same_group(LayerKind::Relu, 1);
        assert_eq!(r.stored_activation_elems(&[8, 4, 4]), 0);
        let b = LayerSpec::same_group(LayerKind::BatchNorm2d { c: 8 }, 1);
        assert_eq!(b.stored_activation_elems(&[8, 4, 4]), 128);
    }

    #[test]
    fn residual_block_shape_params_and_activations() {
        let block = vec![
            LayerSpec::new(
                LayerKind::Conv2d {
                    c_in: 4,
                    c_out: 4,
                    k: 3,
                    stride: 1,
                    pad: 1,
                    bias: false,
                },
                1,
                1,
            ),
            LayerSpec::same_group(LayerKind::BatchNorm2d { c: 4 }, 1),
            LayerSpec::same_group(LayerKind::Relu, 1),
            LayerSpec::new(
                LayerKind::Conv2d {
                    c_in: 4,
                    c_out: 4,
                    k: 3,
                    stride: 1,
                    pad: 1,
                    bias: false,
                },
                1,
                1,
            ),
            LayerSpec::same_group(LayerKind::BatchNorm2d { c: 4 }, 1),
        ];
        let res = LayerSpec::same_group(
            LayerKind::Residual {
                block,
                shortcut: vec![],
            },
            1,
        );
        assert_eq!(res.output_shape(&[4, 8, 8]), vec![4, 8, 8]);
        assert_eq!(res.param_count(), 2 * (4 * 4 * 9) + 2 * 8);
        // conv1 + bn1 + conv2 + bn2 = 4 stored maps of 4·8·8 (the residual
        // add is in-place).
        assert_eq!(res.stored_activation_elems(&[4, 8, 8]), 4 * 256);
    }

    #[test]
    fn atom_spec_aggregates() {
        let atom = AtomSpec::new(
            "a",
            vec![
                conv(3, 8),
                LayerSpec::same_group(LayerKind::Relu, 2),
                LayerSpec::same_group(LayerKind::MaxPool2d { k: 2, stride: 2 }, 2),
            ],
        );
        assert_eq!(atom.output_shape(&[3, 8, 8]), vec![8, 4, 4]);
        assert_eq!(atom.param_count(), 8 * 27 + 8);
        assert_eq!(atom.macs(&[3, 8, 8]), 3 * 8 * 9 * 64);
        // conv output (8·8·8) + pool output (8·4·4); ReLU in-place.
        assert_eq!(atom.stored_activation_elems(&[3, 8, 8]), 512 + 128);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_rejects_wrong_channels() {
        conv(3, 8).output_shape(&[4, 8, 8]);
    }
}
