//! The layer tree, pinned bit for bit.
//!
//! `fp_nn`'s composites (the ResNet `BasicBlock`, a cascade's atoms and
//! FedProphet's `AuxHead`) chain their children's forward and backward
//! passes; this suite is the contract a rewrite of that plumbing is held
//! to. It runs a tiny-ResNet identity block and projection block, a tiny
//! ResNet cascade over three atom windows, and an `AuxHead` in its pooled
//! and flat forms through every route:
//!
//! * `forward` in `Train` and `Eval` mode, then `backward_input`,
//!   `backward_params` and `backward` on copies of the same cache, all
//!   from pre-seeded parameter gradients;
//! * `forward_dx_only`, then `backward_input`.
//!
//! Per case the literal is an FNV-1a digest over the bits of every
//! output, input gradient and parameter gradient, in that order. The
//! running statistics a `Train` forward leaves behind are read by the
//! `Eval` forward that follows it, and for the cascade also hashed
//! directly (`bn_stats`, after the routes).

use fedprophet_repro::fedprophet::AuxHead;
use fedprophet_repro::nn::{models, BasicBlock, CascadeModel, Layer, Mode, Param};
use fedprophet_repro::tensor::{seeded_rng, Tensor};
use rand::rngs::StdRng;

/// FNV-1a over the little-endian bytes of `f32` bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn tensor(&mut self, t: &Tensor) {
        for b in t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn grads(&mut self, params: Vec<&Param>) {
        for p in params {
            self.tensor(p.grad());
        }
    }
}

/// Anything with the forward and backward routes: a layer, a cascade
/// window, a head.
trait Unit: Clone {
    fn fwd(&mut self, x: &Tensor, mode: Mode) -> Tensor;
    fn fwd_dx_only(&mut self, x: &Tensor) -> Tensor;
    fn bwd(&mut self, g: &Tensor) -> Tensor;
    fn bwd_input(&mut self, g: &Tensor) -> Tensor;
    /// The parameter-only backward; `false` for a unit without one.
    fn bwd_params(&mut self, g: &Tensor) -> bool;
    fn unit_params(&self) -> Vec<&Param>;
    fn unit_params_mut(&mut self) -> Vec<&mut Param>;
}

impl Unit for Box<dyn Layer> {
    fn fwd(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward(x, mode)
    }
    fn fwd_dx_only(&mut self, x: &Tensor) -> Tensor {
        self.forward_dx_only(x)
    }
    fn bwd(&mut self, g: &Tensor) -> Tensor {
        self.backward(g)
    }
    fn bwd_input(&mut self, g: &Tensor) -> Tensor {
        self.backward_input(g)
    }
    fn bwd_params(&mut self, g: &Tensor) -> bool {
        self.backward_params(g);
        true
    }
    fn unit_params(&self) -> Vec<&Param> {
        self.params()
    }
    fn unit_params_mut(&mut self) -> Vec<&mut Param> {
        self.params_mut()
    }
}

/// Atoms `[from, to)` of a cascade, through the ranged routes.
#[derive(Clone)]
struct Window {
    model: CascadeModel,
    from: usize,
    to: usize,
}

impl Unit for Window {
    fn fwd(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.model.forward_range(x, self.from, self.to, mode)
    }
    fn fwd_dx_only(&mut self, x: &Tensor) -> Tensor {
        self.model.forward_dx_only_range(x, self.from, self.to)
    }
    fn bwd(&mut self, g: &Tensor) -> Tensor {
        self.model.backward_range(g, self.from, self.to)
    }
    fn bwd_input(&mut self, g: &Tensor) -> Tensor {
        self.model.backward_input_range(g, self.from, self.to)
    }
    fn bwd_params(&mut self, g: &Tensor) -> bool {
        self.model.backward_params_range(g, self.from, self.to);
        true
    }
    fn unit_params(&self) -> Vec<&Param> {
        self.model.params()
    }
    fn unit_params_mut(&mut self) -> Vec<&mut Param> {
        self.model.params_mut()
    }
}

impl Unit for AuxHead {
    fn fwd(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        self.forward(x, mode)
    }
    fn fwd_dx_only(&mut self, x: &Tensor) -> Tensor {
        self.forward_dx_only(x)
    }
    fn bwd(&mut self, g: &Tensor) -> Tensor {
        self.backward(g)
    }
    fn bwd_input(&mut self, g: &Tensor) -> Tensor {
        self.backward_input(g)
    }
    fn bwd_params(&mut self, _: &Tensor) -> bool {
        false
    }
    fn unit_params(&self) -> Vec<&Param> {
        self.params()
    }
    fn unit_params_mut(&mut self) -> Vec<&mut Param> {
        self.params_mut()
    }
}

/// Every route of `unit` on `x`, hashed (see the module docs).
fn digest<U: Unit>(unit: &mut U, x: &Tensor, rng: &mut StdRng) -> Fnv {
    let mut h = Fnv::new();
    for p in unit.unit_params_mut() {
        *p.grad_mut() = Tensor::rand_uniform(p.grad().shape(), -1.0, 1.0, rng);
    }
    for mode in [Mode::Train, Mode::Eval] {
        let y = unit.fwd(x, mode);
        h.tensor(&y);
        let g = Tensor::rand_uniform(y.shape(), -1.0, 1.0, rng);
        let mut input_only = unit.clone();
        h.tensor(&input_only.bwd_input(&g));
        h.grads(input_only.unit_params());
        let mut params_only = unit.clone();
        if params_only.bwd_params(&g) {
            h.grads(params_only.unit_params());
        }
        h.tensor(&unit.bwd(&g));
        h.grads(unit.unit_params());
    }
    let y = unit.fwd_dx_only(x);
    h.tensor(&y);
    let g = Tensor::rand_uniform(y.shape(), -1.0, 1.0, rng);
    h.tensor(&unit.bwd_input(&g));
    h.grads(unit.unit_params());
    h
}

fn block_digest(c_out: usize, stride: usize, seed: u64) -> u64 {
    let mut rng = seeded_rng(seed);
    let mut block: Box<dyn Layer> =
        Box::new(BasicBlock::new("b", 4, c_out, stride, 1, 1, &mut rng));
    let x = Tensor::rand_uniform(&[2, 4, 6, 6], -1.0, 1.0, &mut rng);
    digest(&mut block, &x, &mut rng).0
}

fn cascade_digest(from: usize, to: usize, seed: u64) -> u64 {
    let mut rng = seeded_rng(seed);
    let mut model = models::tiny_resnet(3, 8, 4, &[4, 8], &mut rng);
    let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
    let z = if from == 0 {
        x
    } else {
        model.forward_range(&x, 0, from, Mode::Eval)
    };
    let mut window = Window { model, from, to };
    let mut h = digest(&mut window, &z, &mut rng);
    for (mean, var) in window.model.bn_stats() {
        h.tensor(&mean);
        h.tensor(&var);
    }
    h.0
}

fn head_digest(feature: &[usize], seed: u64) -> u64 {
    let mut rng = seeded_rng(seed);
    let mut head = AuxHead::new("aux", feature, 5, &mut rng);
    let shape: Vec<usize> = std::iter::once(3).chain(feature.iter().copied()).collect();
    let z = Tensor::rand_uniform(&shape, -1.0, 1.0, &mut rng);
    digest(&mut head, &z, &mut rng).0
}

#[test]
fn layer_tree_routes_are_pinned() {
    let n = models::tiny_resnet(3, 8, 4, &[4, 8], &mut seeded_rng(0)).num_atoms();
    let got = [
        ("identity block", block_digest(4, 1, 11)),
        ("projection block", block_digest(8, 2, 12)),
        ("cascade, all atoms", cascade_digest(0, n, 13)),
        ("cascade, atoms 1..", cascade_digest(1, n, 14)),
        ("cascade, atoms 0..2", cascade_digest(0, 2, 15)),
        ("pooled head", head_digest(&[8, 3, 3], 16)),
        ("flat head", head_digest(&[16], 17)),
    ];
    let shown: Vec<String> = got
        .iter()
        .map(|(what, d)| format!("    (\"{what}\", {d:#018x}),"))
        .collect();
    assert!(got == GOLDEN, "digests differ, got:\n{}", shown.join("\n"));
}

/// `(case, digest)`, generated by the hand-written `BasicBlock`, `Atom`
/// and `AuxHead` this suite was written against.
const GOLDEN: [(&str, u64); 7] = [
    ("identity block", 0xc07ab7f877eb8464),
    ("projection block", 0x4fa4f271468689fc),
    ("cascade, all atoms", 0x36a92a5caec90535),
    ("cascade, atoms 1..", 0xd04040b29e3308ac),
    ("cascade, atoms 0..2", 0x07730e46dde7c0ba),
    ("pooled head", 0x70aff0c0909052bd),
    ("flat head", 0xc137968489109c66),
];
