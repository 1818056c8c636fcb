//! Property-based tests for the tensor kernels: algebraic laws that must
//! hold for arbitrary shapes and values, and backend-equivalence laws —
//! the `Parallel` backend must agree with the `Scalar` reference on every
//! kernel for arbitrary shapes and accumulation state. (These shapes sit
//! below the backend's parallelization thresholds, so they pin down the
//! single-thread kernels and tile tails; the threaded chunking paths have
//! dedicated above-threshold unit tests in `backend.rs`.)

use fp_tensor::{col2im, im2col, Backend, Conv2dGeometry, Parallel, Scalar, Tensor};
use proptest::prelude::*;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, len)
}

/// Relative/absolute agreement for backend equivalence: FMA kernels fuse
/// rounding, so exact equality is not expected — 1e-5 relative is.
fn assert_within(got: &[f32], want: &[f32], what: &str) -> Result<(), String> {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let tol = 1e-5f32.max(1e-5 * w.abs().max(g.abs()));
        if (g - w).abs() > tol {
            return Err(format!("{what}[{i}]: parallel {g} vs scalar {w}"));
        }
    }
    Ok(())
}

fn rand_vec(len: usize, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
    use rand::Rng;
    (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Elementwise addition is commutative and subtraction is its inverse.
    #[test]
    fn add_commutes_and_sub_inverts(a in finite_vec(12), b in finite_vec(12)) {
        let ta = Tensor::from_vec(a, &[3, 4]);
        let tb = Tensor::from_vec(b, &[3, 4]);
        let ab = ta.add(&tb);
        let ba = tb.add(&ta);
        prop_assert_eq!(ab.data(), ba.data());
        let back = ab.sub(&tb);
        for (x, y) in back.data().iter().zip(ta.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Scaling distributes over addition: k·(a+b) = k·a + k·b.
    #[test]
    fn scale_distributes(a in finite_vec(8), b in finite_vec(8), k in -5.0f32..5.0) {
        let ta = Tensor::from_vec(a, &[8]);
        let tb = Tensor::from_vec(b, &[8]);
        let lhs = ta.add(&tb).scale(k);
        let rhs = ta.scale(k).add(&tb.scale(k));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-2, "{} vs {}", x, y);
        }
    }

    /// Matmul is linear in its left argument:
    /// (a1 + a2)·b = a1·b + a2·b.
    #[test]
    fn matmul_left_linear(
        a1 in finite_vec(6),
        a2 in finite_vec(6),
        b in finite_vec(6),
    ) {
        let ta1 = Tensor::from_vec(a1, &[2, 3]);
        let ta2 = Tensor::from_vec(a2, &[2, 3]);
        let tb = Tensor::from_vec(b, &[3, 2]);
        let lhs = ta1.add(&ta2).matmul(&tb);
        let rhs = ta1.matmul(&tb).add(&ta2.matmul(&tb));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 0.5, "{} vs {}", x, y);
        }
    }

    /// Identity is neutral for matmul on both sides.
    #[test]
    fn matmul_identity_neutral(a in finite_vec(9)) {
        let ta = Tensor::from_vec(a, &[3, 3]);
        let i = Tensor::eye(3);
        for prod in [ta.matmul(&i), i.matmul(&ta)] {
            for (x, y) in prod.data().iter().zip(ta.data()) {
                prop_assert!((x - y).abs() < 1e-3);
            }
        }
    }

    /// Transposition is an involution and swaps matmul order:
    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn transpose_antihomomorphism(a in finite_vec(6), b in finite_vec(6)) {
        let ta = Tensor::from_vec(a, &[2, 3]);
        let tb = Tensor::from_vec(b, &[3, 2]);
        let lhs = ta.matmul(&tb).transpose2();
        let rhs = tb.transpose2().matmul(&ta.transpose2());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 0.5);
        }
    }

    /// ‖a‖₂² equals ⟨a, a⟩, and the ℓ∞ norm bounds all coordinates.
    #[test]
    fn norm_laws(a in finite_vec(16)) {
        let t = Tensor::from_vec(a, &[16]);
        let n2 = t.norm_l2();
        prop_assert!((n2 * n2 - t.dot(&t)).abs() < 0.3 + 1e-3 * n2 * n2);
        let ninf = t.norm_linf();
        prop_assert!(t.data().iter().all(|v| v.abs() <= ninf + 1e-6));
    }

    /// `im2col`/`col2im` satisfy the adjoint identity
    /// ⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩ for random geometry.
    #[test]
    fn im2col_adjoint(
        c in 1usize..4,
        h in 3usize..8,
        w in 3usize..8,
        stride in 1usize..3,
        pad in 0usize..2,
        seed in 0u64..1000,
    ) {
        let geo = Conv2dGeometry { c_in: c, h, w, k: 3, stride, pad };
        prop_assume!(h + 2 * pad >= 3 && w + 2 * pad >= 3);
        let mut rng = fp_tensor::seeded_rng(seed);
        let x = Tensor::rand_uniform(&[c * h * w], -1.0, 1.0, &mut rng);
        let ylen = geo.col_rows() * geo.col_cols();
        let y = Tensor::rand_uniform(&[ylen], -1.0, 1.0, &mut rng);
        let mut ax = vec![0.0; ylen];
        im2col(x.data(), &geo, &mut ax);
        let mut aty = vec![0.0; x.numel()];
        col2im(y.data(), &geo, &mut aty);
        let lhs: f32 = ax.iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(&aty).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3 * (1.0 + lhs.abs()), "{} vs {}", lhs, rhs);
    }

    /// Stacking then indexing is the identity on batches.
    #[test]
    fn stack_index_roundtrip(seed in 0u64..500, n in 1usize..5) {
        let mut rng = fp_tensor::seeded_rng(seed);
        let parts: Vec<Tensor> = (0..n)
            .map(|_| Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut rng))
            .collect();
        let stacked = Tensor::stack(&parts);
        prop_assert_eq!(stacked.shape(), &[n, 2, 3]);
        for (i, p) in parts.iter().enumerate() {
            let slice = stacked.index_batch(i);
            prop_assert_eq!(slice.data(), p.data());
        }
    }

    /// Clamp really bounds, and is idempotent.
    #[test]
    fn clamp_bounds_and_idempotent(a in finite_vec(10), lo in -2.0f32..0.0, hi in 0.0f32..2.0) {
        let t = Tensor::from_vec(a, &[10]);
        let c = t.clamp(lo, hi);
        prop_assert!(c.min() >= lo && c.max() <= hi);
        let twice = c.clamp(lo, hi);
        prop_assert_eq!(twice.data(), c.data());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Parallel` matmul (`C += A·B`) agrees with the `Scalar` reference
    /// within 1e-5 for arbitrary shapes and prior accumulation state.
    #[test]
    fn parallel_matmul_matches_scalar(
        m in 1usize..40,
        k in 1usize..48,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = fp_tensor::seeded_rng(seed);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let acc = rand_vec(m * n, &mut rng);
        let mut want = acc.clone();
        let mut got = acc;
        Scalar.matmul_into(&a, &b, &mut want, m, k, n);
        Parallel::with_threads(1).matmul_into(&a, &b, &mut got, m, k, n);
        assert_within(&got, &want, "nn")?;
    }

    /// Same for the transposed-left kernel (`C += Aᵀ·B`, weight grads).
    #[test]
    fn parallel_matmul_tn_matches_scalar(
        m in 1usize..40,
        k in 1usize..48,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = fp_tensor::seeded_rng(seed ^ 0x71);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(m * n, &mut rng);
        let acc = rand_vec(k * n, &mut rng);
        let mut want = acc.clone();
        let mut got = acc;
        Scalar.matmul_tn_into(&a, &b, &mut want, m, k, n);
        Parallel::with_threads(1).matmul_tn_into(&a, &b, &mut got, m, k, n);
        assert_within(&got, &want, "tn")?;
    }

    /// Same for the transposed-right kernel (`C += A·Bᵀ`, input grads).
    #[test]
    fn parallel_matmul_nt_matches_scalar(
        m in 1usize..40,
        n in 1usize..48,
        k in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = fp_tensor::seeded_rng(seed ^ 0x72);
        let a = rand_vec(m * n, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        let acc = rand_vec(m * k, &mut rng);
        let mut want = acc.clone();
        let mut got = acc;
        Scalar.matmul_nt_into(&a, &b, &mut want, m, n, k);
        Parallel::with_threads(1).matmul_nt_into(&a, &b, &mut got, m, n, k);
        assert_within(&got, &want, "nt")?;
    }

    /// The backend contract is accumulation: running a matmul twice adds
    /// the product twice, on both backends.
    #[test]
    fn backends_accumulate(
        m in 1usize..10,
        k in 1usize..10,
        n in 1usize..10,
        seed in 0u64..200,
    ) {
        let mut rng = fp_tensor::seeded_rng(seed ^ 0x74);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        for backend in [&Scalar as &dyn Backend, &Parallel::with_threads(2)] {
            let mut once = vec![0.0; m * n];
            backend.matmul_into(&a, &b, &mut once, m, k, n);
            let mut twice = vec![0.0; m * n];
            backend.matmul_into(&a, &b, &mut twice, m, k, n);
            backend.matmul_into(&a, &b, &mut twice, m, k, n);
            for (o, t) in once.iter().zip(&twice) {
                prop_assert!(
                    (2.0 * o - t).abs() <= 1e-4 * (1.0 + t.abs()),
                    "accumulation broken: {} vs {}", 2.0 * o, t
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stochastic quantization round-trip error is bounded by one
    /// quantization step (`scale / L`) per element, for arbitrary inputs,
    /// code widths, and chunkings.
    #[test]
    fn quant_roundtrip_error_bounded_by_chunk_scale(
        full in proptest::collection::vec(-50.0f32..50.0, 300),
        len in 1usize..300,
        bits in 2u32..9,
        chunk in 1usize..64,
        seed in 0u64..1000,
    ) {
        let x = &full[..len];
        let (codes, scales) = fp_tensor::quant::quantize(x, bits, chunk, seed);
        let d = fp_tensor::quant::dequantize(&codes, &scales, bits, chunk);
        let l = fp_tensor::quant::max_level(bits) as f32;
        for (ci, (xs, ds)) in x.chunks(chunk).zip(d.chunks(chunk)).enumerate() {
            let bound = scales[ci] / l * (1.0 + 1e-5) + 1e-7;
            for (a, b) in xs.iter().zip(ds) {
                prop_assert!(
                    (a - b).abs() <= bound,
                    "chunk {} at {} bits: |{} - {}| > {}", ci, bits, a, b, bound
                );
            }
        }
    }

    /// Error feedback on a constant stream drains: feeding `c + residual`
    /// back through the quantizer every step keeps the residual within one
    /// quantization step (it never accumulates), so the summed dequantized
    /// mass telescopes to `T·c ± one step` — the carried error is bounded
    /// independent of `T` and the per-step average converges to `c`.
    #[test]
    fn quant_ef_drains_on_constant_stream(
        c in 0.01f32..10.0,
        bits in 2u32..9,
        seed in 0u64..1000,
        len in 1usize..64,
    ) {
        let l = fp_tensor::quant::max_level(bits) as f32;
        let steps = 16u64;
        let mut r = vec![0.0f32; len];
        let mut sum_d = vec![0.0f32; len];
        let mut bound = 0.0f32;
        for t in 0..steps {
            let y: Vec<f32> = r.iter().map(|ri| c + ri).collect();
            let (codes, scales) = fp_tensor::quant::quantize(&y, bits, len, seed ^ (t << 10));
            let d = fp_tensor::quant::dequantize(&codes, &scales, bits, len);
            let step = scales[0] / l * (1.0 + 1e-5) + 1e-6;
            bound = bound.max(step);
            for i in 0..len {
                r[i] = y[i] - d[i];
                sum_d[i] += d[i];
                prop_assert!(
                    r[i].abs() <= step,
                    "step {}: residual {} exceeds one quantization step {}", t, r[i], step
                );
            }
        }
        let target = steps as f32 * c;
        for &s in &sum_d {
            prop_assert!(
                (s - target).abs() <= 2.0 * bound + 1e-3 * target.abs(),
                "telescoped mass {} drifted from {} beyond carried bound {}", s, target, bound
            );
        }
    }
}
