//! Finite-difference gradient checking (test support).
//!
//! Every differentiable layer's unit tests call
//! [`check_layer_gradients`], which compares analytic gradients (both with
//! respect to the input and to every parameter) against central finite
//! differences of the scalar surrogate loss `L = Σ r ⊙ forward(x)` for a
//! fixed random `r`. [`check_layer_input_gradients`] does the same for the
//! attack-pass route, [`Layer::backward_input`], in both forward modes,
//! and checks that it leaves parameter gradients alone.

use crate::layer::{Layer, Mode};
use fp_tensor::Tensor;
use rand::rngs::StdRng;

const H: f32 = 2e-3;
const REL_TOL: f32 = 3e-2;
const ABS_TOL: f32 = 2e-3;
/// Max coordinates probed per tensor (keeps conv checks fast).
const MAX_COORDS: usize = 48;

/// Checks `layer`'s input and parameter gradients at a random point, in
/// `Mode::Train`.
///
/// # Panics
///
/// Panics (fails the test) if any probed coordinate's analytic gradient
/// deviates from the central finite difference beyond tolerance.
pub fn check_layer_gradients(layer: &mut dyn Layer, input_shape: &[usize], rng: &mut StdRng) {
    check_layer_gradients_mode(layer, input_shape, Mode::Train, rng);
}

/// As [`check_layer_gradients`], with an explicit forward mode.
pub fn check_layer_gradients_mode(
    layer: &mut dyn Layer,
    input_shape: &[usize],
    mode: Mode,
    rng: &mut StdRng,
) {
    let x = Tensor::rand_uniform(input_shape, -1.0, 1.0, rng);
    let y = layer.forward(&x, mode);
    let r = Tensor::rand_uniform(y.shape(), -1.0, 1.0, rng);

    // Analytic gradients.
    for p in layer.params_mut() {
        p.zero_grad();
    }
    let _ = layer.forward(&x, mode);
    let dx = layer.backward(&r);
    let param_grads: Vec<Tensor> = layer.params().iter().map(|p| p.grad().clone()).collect();

    compare_input_gradient(layer, &x, mode, &r, &dx);

    // Numeric parameter gradients.
    let n_params = layer.params().len();
    #[allow(clippy::needless_range_loop)] // index shared across several buffers
    for pi in 0..n_params {
        let base = layer.params()[pi].value().clone();
        let coords = pick_coords(base.numel());
        for &i in &coords {
            let mut vp = base.clone();
            vp.data_mut()[i] += H;
            layer.params_mut()[pi].set_value(vp);
            let lp = loss(layer, &x, mode, &r);
            let mut vm = base.clone();
            vm.data_mut()[i] -= H;
            layer.params_mut()[pi].set_value(vm);
            let lm = loss(layer, &x, mode, &r);
            layer.params_mut()[pi].set_value(base.clone());
            let numeric = ((lp - lm) / (2.0 * H as f64)) as f32;
            compare("param", i, param_grads[pi].data()[i], numeric);
        }
    }
}

/// Checks the input gradient [`Layer::backward_input`] returns against
/// finite differences at a random point, after a `Mode::Train` and after a
/// `Mode::Eval` forward, and that the pass leaves pre-seeded parameter
/// gradients unchanged.
///
/// # Panics
///
/// Panics (fails the test) on a deviating coordinate or a touched
/// parameter gradient.
pub fn check_layer_input_gradients(layer: &mut dyn Layer, input_shape: &[usize], rng: &mut StdRng) {
    for mode in [Mode::Train, Mode::Eval] {
        let x = Tensor::rand_uniform(input_shape, -1.0, 1.0, rng);
        for p in layer.params_mut() {
            *p.grad_mut() = Tensor::rand_uniform(p.grad().shape(), -1.0, 1.0, rng);
        }
        let seeded: Vec<Tensor> = layer.params().iter().map(|p| p.grad().clone()).collect();
        let y = layer.forward(&x, mode);
        let r = Tensor::rand_uniform(y.shape(), -1.0, 1.0, rng);
        let dx = layer.backward_input(&r);
        for (p, before) in layer.params().iter().zip(&seeded) {
            assert_eq!(
                p.grad(),
                before,
                "backward_input touched the gradient of {} ({mode:?})",
                p.name()
            );
        }
        compare_input_gradient(layer, &x, mode, &r, &dx);
    }
}

/// Compares `dx` with central finite differences of `loss` around `x`.
fn compare_input_gradient(layer: &mut dyn Layer, x: &Tensor, mode: Mode, r: &Tensor, dx: &Tensor) {
    for &i in &pick_coords(x.numel()) {
        let mut xp = x.clone();
        xp.data_mut()[i] += H;
        let lp = loss(layer, &xp, mode, r);
        let mut xm = x.clone();
        xm.data_mut()[i] -= H;
        let lm = loss(layer, &xm, mode, r);
        let numeric = (lp - lm) / (2.0 * H as f64);
        compare("input", i, dx.data()[i], numeric as f32);
    }
}

fn loss(layer: &mut dyn Layer, x: &Tensor, mode: Mode, r: &Tensor) -> f64 {
    let y = layer.forward(x, mode);
    y.data()
        .iter()
        .zip(r.data().iter())
        .map(|(&a, &b)| a as f64 * b as f64)
        .sum()
}

fn pick_coords(n: usize) -> Vec<usize> {
    if n <= MAX_COORDS {
        (0..n).collect()
    } else {
        // Deterministic stratified sample.
        (0..MAX_COORDS).map(|i| i * n / MAX_COORDS).collect()
    }
}

fn compare(what: &str, idx: usize, analytic: f32, numeric: f32) {
    let diff = (analytic - numeric).abs();
    let scale = analytic.abs().max(numeric.abs());
    assert!(
        diff <= ABS_TOL || diff <= REL_TOL * scale,
        "{what} grad mismatch at {idx}: analytic {analytic} vs numeric {numeric} (diff {diff})"
    );
}
