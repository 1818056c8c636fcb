//! Channel-structured sub-model extraction and aggregation.
//!
//! The partial-training FL family (HeteroFL, FedDrop, FedRolex) lets a
//! memory-constrained client train a *narrow* version of the global model:
//! every hidden channel group keeps only a subset of its channels, and the
//! server partial-averages the trained entries back into the global model
//! (paper §2.1, Eq. 16-17).
//!
//! The three methods differ only in **which** channels are kept
//! ([`SubmodelScheme`]): HeteroFL keeps a fixed prefix, FedRolex rolls the
//! window by one channel per round, FedDrop samples randomly.
//!
//! A sub-model is one map of indices into the global model's *state* —
//! its flat parameters, then each BN layer's running mean and variance —
//! built by one walk over the global specs, whose channel-group labels
//! ([`fp_nn::spec::LayerSpec`]) say which rows and columns of each tensor
//! a keep set retains. Extraction gathers through the map
//! ([`extract_submodel`], and [`submodel_params`] without building a
//! model); aggregation scatters through it into one flat
//! [`PartialAccumulator`] ([`SubmodelAccumulator`]). Nothing is
//! architecture-specific: VGG, CNN and ResNet cascades all work.

use crate::aggregate::PartialAccumulator;
use fp_nn::models::instantiate;
use fp_nn::spec::{AtomSpec, LayerKind, LayerSpec, GROUP_INPUT, GROUP_OUTPUT};
use fp_nn::CascadeModel;
use fp_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// How a sub-model's channels are chosen each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SubmodelScheme {
    /// Fixed prefix `0..k` (HeteroFL).
    Static,
    /// Rolling window starting at `round mod C` (FedRolex).
    Rolling,
    /// Random subset each round (FedDrop / federated dropout).
    Random,
}

/// Channel counts per group id, collected from specs.
///
/// # Panics
///
/// Panics if two layers disagree about a group's width.
pub fn channel_groups(specs: &[AtomSpec]) -> BTreeMap<usize, usize> {
    let mut groups = BTreeMap::new();
    for atom in specs {
        for l in &atom.layers {
            record_layer_groups(l, &mut groups);
        }
    }
    groups
}

fn record(groups: &mut BTreeMap<usize, usize>, g: usize, c: usize) {
    match groups.get(&g) {
        Some(&prev) => assert_eq!(prev, c, "group {g} has inconsistent widths {prev} vs {c}"),
        None => {
            groups.insert(g, c);
        }
    }
}

fn record_layer_groups(l: &LayerSpec, groups: &mut BTreeMap<usize, usize>) {
    match &l.kind {
        LayerKind::Conv2d { c_in, c_out, .. } => {
            record(groups, l.in_group, *c_in);
            record(groups, l.out_group, *c_out);
        }
        LayerKind::Linear {
            d_in,
            d_out,
            in_spatial,
        } => {
            record(groups, l.in_group, d_in / in_spatial);
            record(groups, l.out_group, *d_out);
        }
        LayerKind::BatchNorm2d { c } => record(groups, l.out_group, *c),
        LayerKind::Residual { block, shortcut } => {
            for b in block.iter().chain(shortcut.iter()) {
                record_layer_groups(b, groups);
            }
        }
        _ => {}
    }
}

/// Builds the kept-channel sets for a width `ratio ∈ (0, 1]`.
///
/// Groups `GROUP_INPUT` and `GROUP_OUTPUT` always keep all channels.
pub fn keep_sets(
    groups: &BTreeMap<usize, usize>,
    ratio: f32,
    scheme: SubmodelScheme,
    round: usize,
    rng: &mut StdRng,
) -> HashMap<usize, Vec<usize>> {
    assert!(ratio > 0.0 && ratio <= 1.0, "ratio must be in (0,1]");
    let mut keep = HashMap::new();
    for (&g, &c) in groups {
        if g == GROUP_INPUT || g == GROUP_OUTPUT {
            keep.insert(g, (0..c).collect());
            continue;
        }
        let k = ((c as f32 * ratio).round() as usize).clamp(1, c);
        let set: Vec<usize> = match scheme {
            SubmodelScheme::Static => (0..k).collect(),
            SubmodelScheme::Rolling => {
                let start = round % c;
                let mut v: Vec<usize> = (0..k).map(|i| (start + i) % c).collect();
                v.sort_unstable();
                v
            }
            SubmodelScheme::Random => {
                let mut all: Vec<usize> = (0..c).collect();
                all.shuffle(rng);
                let mut v = all[..k].to_vec();
                v.sort_unstable();
                v
            }
        };
        keep.insert(g, set);
    }
    keep
}

fn kept(keep: &HashMap<usize, Vec<usize>>, g: usize, orig: usize) -> Vec<usize> {
    keep.get(&g).cloned().unwrap_or_else(|| (0..orig).collect())
}

fn kept_len(keep: &HashMap<usize, Vec<usize>>, g: usize, orig: usize) -> usize {
    keep.get(&g).map(|v| v.len()).unwrap_or(orig)
}

/// Rewrites specs with sliced channel counts.
pub fn slice_specs(specs: &[AtomSpec], keep: &HashMap<usize, Vec<usize>>) -> Vec<AtomSpec> {
    specs
        .iter()
        .map(|a| {
            AtomSpec::new(
                a.name.clone(),
                a.layers.iter().map(|l| slice_layer_spec(l, keep)).collect(),
            )
        })
        .collect()
}

fn slice_layer_spec(l: &LayerSpec, keep: &HashMap<usize, Vec<usize>>) -> LayerSpec {
    let kind = match &l.kind {
        LayerKind::Conv2d {
            c_in,
            c_out,
            k,
            stride,
            pad,
            bias,
        } => LayerKind::Conv2d {
            c_in: kept_len(keep, l.in_group, *c_in),
            c_out: kept_len(keep, l.out_group, *c_out),
            k: *k,
            stride: *stride,
            pad: *pad,
            bias: *bias,
        },
        LayerKind::Linear {
            d_in,
            d_out,
            in_spatial,
        } => LayerKind::Linear {
            d_in: kept_len(keep, l.in_group, d_in / in_spatial) * in_spatial,
            d_out: kept_len(keep, l.out_group, *d_out),
            in_spatial: *in_spatial,
        },
        LayerKind::BatchNorm2d { c } => LayerKind::BatchNorm2d {
            c: kept_len(keep, l.out_group, *c),
        },
        LayerKind::Residual { block, shortcut } => LayerKind::Residual {
            block: block.iter().map(|b| slice_layer_spec(b, keep)).collect(),
            shortcut: shortcut.iter().map(|b| slice_layer_spec(b, keep)).collect(),
        },
        other => other.clone(),
    };
    LayerSpec::new(kind, l.in_group, l.out_group)
}

/// A sub-model as indices into its global model's *state*: the flat
/// parameters (`flat_params` order), then each BN layer's running mean
/// and variance (`bn_stats` order). Sub-model state entry `i` is global
/// state entry `idx[i]`.
struct IndexMap {
    idx: Vec<usize>,
    /// How many leading entries of `idx` are parameters.
    n_params: usize,
    /// Length of the global state the walk covered.
    global_len: usize,
}

impl IndexMap {
    /// One walk over the global specs, in the order the concrete layers
    /// expose their `params()` and BN statistics.
    fn new(specs: &[AtomSpec], keep: &HashMap<usize, Vec<usize>>) -> Self {
        let mut map = IndexMap {
            idx: Vec::new(),
            n_params: 0,
            global_len: 0,
        };
        let mut bn = Vec::new();
        for l in specs.iter().flat_map(|a| &a.layers) {
            map.layer(l, keep, &mut bn);
        }
        map.n_params = map.idx.len();
        for (ch, c) in &bn {
            map.push(ch, *c, &[0], 1, 1); // running mean
            map.push(ch, *c, &[0], 1, 1); // running variance
        }
        map
    }

    /// Maps one layer's parameters; a BN layer's kept channels and width
    /// go to `bn`, whose statistics follow every parameter.
    fn layer(
        &mut self,
        l: &LayerSpec,
        keep: &HashMap<usize, Vec<usize>>,
        bn: &mut Vec<(Vec<usize>, usize)>,
    ) {
        match &l.kind {
            LayerKind::Conv2d {
                c_in,
                c_out,
                k,
                bias,
                ..
            } => {
                let rows = kept(keep, l.out_group, *c_out);
                self.push(&rows, *c_out, &kept(keep, l.in_group, *c_in), *c_in, k * k);
                if *bias {
                    self.push(&rows, *c_out, &[0], 1, 1);
                }
            }
            LayerKind::Linear {
                d_in,
                d_out,
                in_spatial,
            } => {
                let (rows, c_in) = (kept(keep, l.out_group, *d_out), d_in / in_spatial);
                self.push(
                    &rows,
                    *d_out,
                    &kept(keep, l.in_group, c_in),
                    c_in,
                    *in_spatial,
                );
                self.push(&rows, *d_out, &[0], 1, 1);
            }
            LayerKind::BatchNorm2d { c } => {
                let ch = kept(keep, l.out_group, *c);
                self.push(&ch, *c, &[0], 1, 1); // γ
                self.push(&ch, *c, &[0], 1, 1); // β
                bn.push((ch, *c));
            }
            LayerKind::Residual { block, shortcut } => {
                for b in block.iter().chain(shortcut) {
                    self.layer(b, keep, bn);
                }
            }
            _ => {}
        }
    }

    /// Maps the kept `rows × cols` blocks of a row-major global tensor
    /// `[n_rows, n_cols, inner]` that starts at `global_len`, then moves
    /// `global_len` past it.
    fn push(&mut self, rows: &[usize], n_rows: usize, cols: &[usize], n_cols: usize, inner: usize) {
        for &r in rows {
            for &c in cols {
                let base = self.global_len + (r * n_cols + c) * inner;
                self.idx.extend(base..base + inner);
            }
        }
        self.global_len += n_rows * n_cols * inner;
    }
}

/// A model's state: its flat parameters, then each BN layer's running
/// mean and variance.
fn state(m: &CascadeModel) -> Vec<f32> {
    let mut v = m.flat_params();
    for (mean, var) in m.bn_stats() {
        v.extend_from_slice(mean.data());
        v.extend_from_slice(var.data());
    }
    v
}

/// Writes a [`state`] back into `m`.
fn set_state(m: &mut CascadeModel, v: &[f32]) {
    let mut off = m.param_count();
    m.set_flat_params(&v[..off]);
    let stats: Vec<(Tensor, Tensor)> = m
        .bn_stats()
        .iter()
        .map(|(mean, var)| {
            let c = mean.numel();
            let t = (
                Tensor::from_vec(v[off..off + c].to_vec(), mean.shape()),
                Tensor::from_vec(v[off + c..off + 2 * c].to_vec(), var.shape()),
            );
            off += 2 * c;
            t
        })
        .collect();
    assert_eq!(off, v.len(), "state length mismatch");
    m.set_bn_stats(&stats);
}

/// The state of `global`'s sub-model keeping `keep`, and how many of its
/// leading entries are parameters.
fn gather(
    global: &CascadeModel,
    specs: &[AtomSpec],
    keep: &HashMap<usize, Vec<usize>>,
) -> (Vec<f32>, usize) {
    let map = IndexMap::new(specs, keep);
    let g = state(global);
    assert_eq!(g.len(), map.global_len, "slot/param walk mismatch");
    (map.idx.iter().map(|&i| g[i]).collect(), map.n_params)
}

/// Extracts a trainable sub-model of `global` keeping the channels in
/// `keep`; parameters and BN running statistics are copied from the
/// corresponding global entries.
pub fn extract_submodel(
    global: &CascadeModel,
    keep: &HashMap<usize, Vec<usize>>,
    rng: &mut StdRng,
) -> CascadeModel {
    let specs = global.specs();
    let mut sub = instantiate(
        &slice_specs(&specs, keep),
        global.input_shape(),
        global.n_classes(),
        rng,
    );
    let (vals, n_params) = gather(global, &specs, keep);
    assert_eq!(sub.param_count(), n_params, "sub slot/param walk mismatch");
    set_state(&mut sub, &vals);
    sub
}

/// The flat parameters of the sub-model [`extract_submodel`] builds,
/// read straight from `global` without instantiating it.
pub fn submodel_params(global: &CascadeModel, keep: &HashMap<usize, Vec<usize>>) -> Vec<f32> {
    let (mut vals, n_params) = gather(global, &global.specs(), keep);
    vals.truncate(n_params);
    vals
}

/// Partial-averages sub-model updates back into the global model: one
/// accumulator over the global state.
pub struct SubmodelAccumulator {
    acc: PartialAccumulator,
    specs: Vec<AtomSpec>,
}

impl SubmodelAccumulator {
    /// Creates a zeroed accumulator shaped like `global`.
    pub fn new(global: &CascadeModel) -> Self {
        SubmodelAccumulator {
            acc: PartialAccumulator::new(state(global).len()),
            specs: global.specs(),
        }
    }

    /// Scatters one client's trained sub-model into the accumulator with
    /// FedAvg weight `weight`.
    pub fn add(&mut self, sub: &CascadeModel, keep: &HashMap<usize, Vec<usize>>, weight: f32) {
        let map = IndexMap::new(&self.specs, keep);
        assert_eq!(map.global_len, self.acc.len(), "slot/param walk mismatch");
        let vals = state(sub);
        assert_eq!(vals.len(), map.idx.len(), "sub walk mismatch");
        for (&i, &v) in map.idx.iter().zip(&vals) {
            self.acc.add(i, v, weight);
        }
    }

    /// Resolves into `global`: covered entries averaged, uncovered kept.
    pub fn apply(&self, global: &mut CascadeModel) {
        let merged = self.acc.finish(&state(global));
        set_state(global, &merged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_nn::models;
    use fp_nn::Mode;
    use fp_tensor::seeded_rng;

    fn tiny() -> CascadeModel {
        let mut rng = seeded_rng(0);
        models::tiny_vgg(3, 8, 4, &[6, 10], &mut rng)
    }

    #[test]
    fn groups_collect_widths() {
        let m = tiny();
        let groups = channel_groups(&m.specs());
        assert_eq!(groups[&GROUP_INPUT], 3);
        assert_eq!(groups[&1], 6);
        assert_eq!(groups[&2], 10);
        assert_eq!(groups[&GROUP_OUTPUT], 4);
    }

    #[test]
    fn keep_sets_schemes() {
        let m = tiny();
        let groups = channel_groups(&m.specs());
        let mut rng = seeded_rng(1);
        let s = keep_sets(&groups, 0.5, SubmodelScheme::Static, 0, &mut rng);
        assert_eq!(s[&1], vec![0, 1, 2]);
        assert_eq!(s[&GROUP_OUTPUT].len(), 4, "output never sliced");
        let r3 = keep_sets(&groups, 0.5, SubmodelScheme::Rolling, 3, &mut rng);
        assert_eq!(r3[&1], vec![3, 4, 5]);
        let r5 = keep_sets(&groups, 0.5, SubmodelScheme::Rolling, 5, &mut rng);
        assert_eq!(r5[&1], vec![0, 1, 5], "window wraps");
        let rand = keep_sets(&groups, 0.5, SubmodelScheme::Random, 0, &mut rng);
        assert_eq!(rand[&1].len(), 3);
        assert!(rand[&1].windows(2).all(|w| w[0] < w[1]), "sorted");
    }

    #[test]
    fn full_ratio_extraction_is_identity() {
        let global = tiny();
        let groups = channel_groups(&global.specs());
        let mut rng = seeded_rng(2);
        let keep = keep_sets(&groups, 1.0, SubmodelScheme::Static, 0, &mut rng);
        let sub = extract_submodel(&global, &keep, &mut rng);
        assert_eq!(sub.flat_params(), global.flat_params());
    }

    #[test]
    fn submodel_forward_runs_and_differs() {
        let global = tiny();
        let groups = channel_groups(&global.specs());
        let mut rng = seeded_rng(3);
        let keep = keep_sets(&groups, 0.5, SubmodelScheme::Static, 0, &mut rng);
        let mut sub = extract_submodel(&global, &keep, &mut rng);
        assert!(sub.param_count() < global.param_count());
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let y = sub.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 4], "logit width never sliced");
    }

    #[test]
    fn extract_then_scatter_roundtrips() {
        // Scattering an unmodified sub-model back must reproduce the
        // global values on covered entries and keep the rest.
        let global = tiny();
        let groups = channel_groups(&global.specs());
        let mut rng = seeded_rng(4);
        let keep = keep_sets(&groups, 0.5, SubmodelScheme::Rolling, 7, &mut rng);
        let sub = extract_submodel(&global, &keep, &mut rng);
        let mut acc = SubmodelAccumulator::new(&global);
        acc.add(&sub, &keep, 1.0);
        let mut merged = global.clone();
        acc.apply(&mut merged);
        let a = global.flat_params();
        let b = merged.flat_params();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6, "roundtrip changed a value");
        }
    }

    #[test]
    fn two_clients_average_on_overlap() {
        let global = tiny();
        let groups = channel_groups(&global.specs());
        let mut rng = seeded_rng(5);
        let keep = keep_sets(&groups, 1.0, SubmodelScheme::Static, 0, &mut rng);
        let mut sub_a = extract_submodel(&global, &keep, &mut rng);
        let mut sub_b = extract_submodel(&global, &keep, &mut rng);
        // Shift all params of a by +1 and b by +3; average must be +2.
        for p in sub_a.params_mut() {
            p.value_mut().map_inplace(|v| v + 1.0);
        }
        for p in sub_b.params_mut() {
            p.value_mut().map_inplace(|v| v + 3.0);
        }
        let mut acc = SubmodelAccumulator::new(&global);
        acc.add(&sub_a, &keep, 1.0);
        acc.add(&sub_b, &keep, 1.0);
        let mut merged = global.clone();
        acc.apply(&mut merged);
        for (m, g) in merged.flat_params().iter().zip(global.flat_params()) {
            assert!((m - (g + 2.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn resnet_submodels_work() {
        let mut rng = seeded_rng(6);
        let global = models::tiny_resnet(3, 8, 4, &[4, 8], &mut rng);
        let groups = channel_groups(&global.specs());
        let keep = keep_sets(&groups, 0.5, SubmodelScheme::Static, 0, &mut rng);
        let mut sub = extract_submodel(&global, &keep, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        assert_eq!(sub.forward(&x, Mode::Eval).shape(), &[2, 4]);
        // Round-trip property holds for residual architectures too.
        let mut acc = SubmodelAccumulator::new(&global);
        acc.add(&sub, &keep, 2.0);
        let mut merged = global.clone();
        acc.apply(&mut merged);
        for (x, y) in global.flat_params().iter().zip(merged.flat_params()) {
            assert!((x - y).abs() < 1e-6);
        }
    }
}
