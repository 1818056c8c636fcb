//! Equivalence laws for the packed-GEMM engine's public entry points:
//!
//! * **bitwise thread invariance** — `Parallel` results are identical
//!   bytes at 1, 2, and 4 worker threads, on shapes large enough that
//!   the planner actually splits work;
//! * **Scalar ≡ Parallel at 1e-5** — the staged conv and grouped-GEMM
//!   entry points agree with the materialized reference path for random
//!   (including skinny and degenerate) shapes;
//! * **staged conv ≡ the canonical chain, bitwise** — forward, dW and dX
//!   accumulate into non-zero destinations exactly as the literal
//!   `mul_add` folds over materialized `cols` do, across every fold edge
//!   of the batch-folded lowering.
//!
//! Tile-config and cross-ISA bitwise invariance are pinned by the unit
//! tests inside `fp_tensor::pack`, which can reach the internal tile
//! knobs directly.

use fp_tensor::{Backend, Conv2dGeometry, Parallel, Scalar};
use proptest::prelude::*;

fn rand_vec(len: usize, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
    use rand::Rng;
    (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

fn assert_within(got: &[f32], want: &[f32], what: &str) -> Result<(), String> {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let tol = 1e-5f32.max(1e-5 * w.abs().max(g.abs()));
        if (g - w).abs() > tol {
            return Err(format!("{what}[{i}]: parallel {g} vs scalar {w}"));
        }
    }
    Ok(())
}

/// GEMM flavors at a shape big enough (≈5.2M MACs) that the planner
/// splits rows: 1, 2, and 4 threads must produce identical bytes.
#[test]
fn gemm_flavors_bitwise_across_threads() {
    let mut rng = fp_tensor::seeded_rng(0xB17);
    let (m, k, n) = (160, 64, 512);
    let a = rand_vec(m * k, &mut rng);
    let b = rand_vec(k * n, &mut rng);
    let one = Parallel::with_threads(1);
    let mut want = vec![0.0; m * n];
    one.matmul_into(&a, &b, &mut want, m, k, n);
    for threads in [2, 4] {
        let mut got = vec![0.0; m * n];
        Parallel::with_threads(threads).matmul_into(&a, &b, &mut got, m, k, n);
        assert_eq!(want, got, "matmul threads={threads}");
    }
    // tn: output rows are A's columns.
    let at = rand_vec(512 * 160, &mut rng);
    let bt = rand_vec(512 * 64, &mut rng);
    let mut want = vec![0.0; 160 * 64];
    one.matmul_tn_into(&at, &bt, &mut want, 512, 160, 64);
    for threads in [2, 4] {
        let mut got = vec![0.0; 160 * 64];
        Parallel::with_threads(threads).matmul_tn_into(&at, &bt, &mut got, 512, 160, 64);
        assert_eq!(want, got, "tn threads={threads}");
    }
    // nt: B read transposed through the Cols packer.
    let an = rand_vec(160 * 512, &mut rng);
    let bn = rand_vec(64 * 512, &mut rng);
    let mut want = vec![0.0; 160 * 64];
    one.matmul_nt_into(&an, &bn, &mut want, 160, 512, 64);
    for threads in [2, 4] {
        let mut got = vec![0.0; 160 * 64];
        Parallel::with_threads(threads).matmul_nt_into(&an, &bn, &mut got, 160, 512, 64);
        assert_eq!(want, got, "nt threads={threads}");
    }
}

/// Staged conv entry points above the parallel threshold (≈9.4M MACs):
/// identical bytes at 1, 2, and 4 threads.
#[test]
fn fused_conv_bitwise_across_threads() {
    let geo = Conv2dGeometry {
        c_in: 16,
        h: 16,
        w: 16,
        k: 3,
        stride: 1,
        pad: 1,
    };
    let (batch, c_out) = (8usize, 32usize);
    let rows = geo.col_rows();
    let n_cols = geo.col_cols();
    let img_len = geo.c_in * geo.h * geo.w;
    let mut rng = fp_tensor::seeded_rng(0xC0);
    let x = rand_vec(batch * img_len, &mut rng);
    let w = rand_vec(c_out * rows, &mut rng);
    let bias = rand_vec(c_out, &mut rng);
    let g = rand_vec(batch * c_out * n_cols, &mut rng);

    let run = |threads: usize| {
        let be = Parallel::with_threads(threads);
        let mut ws = Vec::new();
        let mut out = vec![0.0; batch * c_out * n_cols];
        be.conv2d_forward(&x, &w, Some(&bias), &mut out, batch, c_out, &geo, &mut ws);
        let mut dw = vec![0.0; c_out * rows];
        be.conv2d_backward_weights(&x, &g, &mut dw, batch, c_out, &geo, &mut ws);
        let mut dx = vec![0.0; batch * img_len];
        be.conv2d_backward_input(&w, &g, &mut dx, batch, c_out, &geo, &mut ws);
        (out, dw, dx)
    };
    let want = run(1);
    for threads in [2, 4] {
        let got = run(threads);
        assert_eq!(want.0, got.0, "forward threads={threads}");
        assert_eq!(want.1, got.1, "dW threads={threads}");
        assert_eq!(want.2, got.2, "dX threads={threads}");
    }
}

/// The canonical conv chains evaluated literally on materialized `cols`
/// — one in-order `mul_add` fold per output element — accumulating into
/// the given destinations: `(out, dw, dx)`.
#[allow(clippy::too_many_arguments)]
fn canonical_conv(
    x: &[f32],
    w: &[f32],
    g: &[f32],
    batch: usize,
    c_out: usize,
    geo: &Conv2dGeometry,
    (mut out, mut dw, mut dx): (Vec<f32>, Vec<f32>, Vec<f32>),
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (rows, n_cols) = (geo.col_rows(), geo.col_cols());
    let img_len = geo.c_in * geo.h * geo.w;
    let mut cols = vec![0.0f32; rows * n_cols];
    for s in 0..batch {
        fp_tensor::im2col(&x[s * img_len..][..img_len], geo, &mut cols);
        let g_s = &g[s * c_out * n_cols..][..c_out * n_cols];
        let out_s = &mut out[s * c_out * n_cols..][..c_out * n_cols];
        for i in 0..c_out {
            // Forward: p-ascending over the im2col rows.
            for q in 0..n_cols {
                let mut c = out_s[i * n_cols + q];
                for p in 0..rows {
                    c = w[i * rows + p].mul_add(cols[p * n_cols + q], c);
                }
                out_s[i * n_cols + q] = c;
            }
            // dW: s-major, q-ascending.
            for r in 0..rows {
                let mut c = dw[i * rows + r];
                for q in 0..n_cols {
                    c = g_s[i * n_cols + q].mul_add(cols[r * n_cols + q], c);
                }
                dw[i * rows + r] = c;
            }
        }
        // dX: dcols = Wᵀ·g_s from zero, channel-ascending, then col2im.
        for r in 0..rows {
            for q in 0..n_cols {
                let mut c = 0.0f32;
                for p in 0..c_out {
                    c = w[p * rows + r].mul_add(g_s[p * n_cols + q], c);
                }
                cols[r * n_cols + q] = c;
            }
        }
        fp_tensor::col2im(&cols, geo, &mut dx[s * img_len..][..img_len]);
    }
    (out, dw, dx)
}

/// The batch-folded lowering against the canonical chain, bitwise,
/// through the public entry points: batch 1 / 5 / 32 / 33 (one sample, a
/// ragged last fold group), `n_cols` 1 / 4 / 9 / 16 / 64 / 256 (from
/// panels that straddle many samples to two-sample groups), stride 2,
/// 1–3 threads, and non-zero `out` / `dw` / `dx`. Channel counts put the
/// batch-32/33 cases above the planner's threshold so the thread split
/// is real.
#[test]
fn staged_conv_bitwise_canonical_chain_at_fold_edges() {
    let geo = |c_in, hw, stride, pad| Conv2dGeometry {
        c_in,
        h: hw,
        w: hw,
        k: 3,
        stride,
        pad,
    };
    for (geo, c_out) in [
        (geo(128, 3, 1, 0), 128usize), // n_cols 1
        (geo(64, 2, 1, 1), 64),        // n_cols 4
        (geo(32, 3, 1, 1), 64),        // n_cols 9
        (geo(32, 8, 2, 1), 32),        // n_cols 16, stride 2
        (geo(16, 8, 1, 1), 16),        // n_cols 64
        (geo(8, 16, 1, 1), 8),         // n_cols 256
    ] {
        let (rows, n_cols) = (geo.col_rows(), geo.col_cols());
        let img_len = geo.c_in * geo.h * geo.w;
        for batch in [1usize, 5, 32, 33] {
            let mut rng = fp_tensor::seeded_rng(0xF01D ^ (batch * n_cols) as u64);
            let x = rand_vec(batch * img_len, &mut rng);
            let w = rand_vec(c_out * rows, &mut rng);
            let g = rand_vec(batch * c_out * n_cols, &mut rng);
            let init = (
                rand_vec(batch * c_out * n_cols, &mut rng),
                rand_vec(c_out * rows, &mut rng),
                rand_vec(batch * img_len, &mut rng),
            );
            let want = canonical_conv(&x, &w, &g, batch, c_out, &geo, init.clone());
            for threads in [1, 2, 3] {
                let be = Parallel::with_threads(threads);
                let (mut out, mut dw, mut dx) = init.clone();
                let mut ws = Vec::new();
                be.conv2d_forward(&x, &w, None, &mut out, batch, c_out, &geo, &mut ws);
                be.conv2d_backward_weights(&x, &g, &mut dw, batch, c_out, &geo, &mut ws);
                be.conv2d_backward_input(&w, &g, &mut dx, batch, c_out, &geo, &mut ws);
                let what = format!("n_cols {n_cols} batch {batch} threads {threads}");
                assert_eq!(out, want.0, "forward {what}");
                assert_eq!(dw, want.1, "dW {what}");
                assert_eq!(dx, want.2, "dX {what}");
            }
        }
    }
}

/// The PR-6 regression probe, kept as a pinned suite: k=5 pad=2
/// stride=1 geometries where a packed B panel ends inside the left
/// padding — the span arithmetic of the old per-row patch reader
/// underflowed there; the staged lowering reads those taps from the
/// zero border of its padded staging. Covers forward and both backward
/// kernels, and checks the Parallel results are bitwise thread-invariant
/// on these degenerate shapes too.
#[test]
fn conv_left_pad_short_span() {
    for (h, w) in [(5usize, 31usize), (5, 5), (3, 1)] {
        let geo = Conv2dGeometry {
            c_in: 1,
            h,
            w,
            k: 5,
            stride: 1,
            pad: 2,
        };
        let (batch, c_out) = (1usize, 1usize);
        let rows = geo.col_rows();
        let n_cols = geo.col_cols();
        let img_len = geo.c_in * geo.h * geo.w;
        let x: Vec<f32> = (0..batch * img_len).map(|i| i as f32 * 0.01).collect();
        let wts: Vec<f32> = (0..c_out * rows).map(|i| i as f32 * 0.001).collect();
        let g: Vec<f32> = (0..batch * c_out * n_cols)
            .map(|i| (i as f32 * 0.02).sin())
            .collect();
        let run = |be: &dyn Backend| {
            let mut ws = Vec::new();
            let mut out = vec![0.0; batch * c_out * n_cols];
            be.conv2d_forward(&x, &wts, None, &mut out, batch, c_out, &geo, &mut ws);
            let mut dw = vec![0.0; c_out * rows];
            be.conv2d_backward_weights(&x, &g, &mut dw, batch, c_out, &geo, &mut ws);
            let mut dx = vec![0.0; batch * img_len];
            be.conv2d_backward_input(&wts, &g, &mut dx, batch, c_out, &geo, &mut ws);
            (out, dw, dx)
        };
        let want = run(&Scalar);
        for threads in [1, 2] {
            let got = run(&Parallel::with_threads(threads));
            assert_within(&got.0, &want.0, "forward").unwrap();
            assert_within(&got.1, &want.1, "dW").unwrap();
            assert_within(&got.2, &want.2, "dX").unwrap();
        }
        // Degenerate spans must not perturb thread determinism.
        assert_eq!(
            run(&Parallel::with_threads(1)),
            run(&Parallel::with_threads(4)),
            "thread invariance at h={h} w={w}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Edge-span sweep over kernel size and padding: every (k, pad,
    /// stride, h, w) combination that yields at least one output column
    /// — including w < k, single-column outputs and pad ≥ k (whole
    /// taps inside the border) — must agree with the Scalar reference on
    /// all three kernels without panicking, with several samples folded
    /// into each packed panel.
    #[test]
    fn conv2d_edge_span_sweep(
        k in 1usize..6,
        pad in 0usize..3,
        stride in 1usize..3,
        h in 1usize..8,
        w in 1usize..8,
        batch in 2usize..5,
        seed in 0u64..1000,
    ) {
        let geo = Conv2dGeometry { c_in: 1, h, w, k, stride, pad };
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let c_out = 2usize;
        let rows = geo.col_rows();
        let n_cols = geo.col_cols();
        let img_len = geo.c_in * geo.h * geo.w;
        let mut rng = fp_tensor::seeded_rng(seed ^ 0xF3);
        let x = rand_vec(batch * img_len, &mut rng);
        let wt = rand_vec(c_out * rows, &mut rng);
        let g = rand_vec(batch * c_out * n_cols, &mut rng);
        let run = |be: &dyn Backend| {
            let mut ws = Vec::new();
            let mut out = vec![0.0; batch * c_out * n_cols];
            be.conv2d_forward(&x, &wt, None, &mut out, batch, c_out, &geo, &mut ws);
            let mut dw = vec![0.0; c_out * rows];
            be.conv2d_backward_weights(&x, &g, &mut dw, batch, c_out, &geo, &mut ws);
            let mut dx = vec![0.0; batch * img_len];
            be.conv2d_backward_input(&wt, &g, &mut dx, batch, c_out, &geo, &mut ws);
            (out, dw, dx)
        };
        let want = run(&Scalar);
        let got = run(&Parallel::with_threads(2));
        assert_within(&got.0, &want.0, "forward")?;
        assert_within(&got.1, &want.1, "dW")?;
        assert_within(&got.2, &want.2, "dX")?;
    }

    /// Staged conv forward ≡ materialized Scalar reference at 1e-5 for
    /// random geometry (stride 1–2, pad 0–1, skinny channel counts).
    #[test]
    fn conv2d_forward_scalar_vs_parallel(
        c_in in 1usize..5,
        h in 3usize..10,
        w in 3usize..10,
        stride in 1usize..3,
        pad in 0usize..2,
        batch in 1usize..4,
        c_out in 1usize..6,
        seed in 0u64..1000,
    ) {
        let geo = Conv2dGeometry { c_in, h, w, k: 3, stride, pad };
        prop_assume!(h + 2 * pad >= 3 && w + 2 * pad >= 3);
        let rows = geo.col_rows();
        let n_cols = geo.col_cols();
        let img_len = c_in * h * w;
        let mut rng = fp_tensor::seeded_rng(seed ^ 0xF0);
        let x = rand_vec(batch * img_len, &mut rng);
        let wt = rand_vec(c_out * rows, &mut rng);
        let bias = rand_vec(c_out, &mut rng);
        let mut ws_s = Vec::new();
        let mut ws_p = Vec::new();
        let mut want = vec![0.0; batch * c_out * n_cols];
        Scalar.conv2d_forward(&x, &wt, Some(&bias), &mut want, batch, c_out, &geo, &mut ws_s);
        let mut got = vec![0.0; batch * c_out * n_cols];
        Parallel::with_threads(2)
            .conv2d_forward(&x, &wt, Some(&bias), &mut got, batch, c_out, &geo, &mut ws_p);
        assert_within(&got, &want, "conv2d_forward")?;
    }

    /// Both staged conv backward kernels ≡ the Scalar reference at 1e-5,
    /// including gradient accumulation into non-zero buffers (`dw`).
    #[test]
    fn conv2d_backward_scalar_vs_parallel(
        c_in in 1usize..4,
        h in 3usize..9,
        w in 3usize..9,
        stride in 1usize..3,
        pad in 0usize..2,
        batch in 1usize..4,
        c_out in 1usize..6,
        seed in 0u64..1000,
    ) {
        let geo = Conv2dGeometry { c_in, h, w, k: 3, stride, pad };
        prop_assume!(h + 2 * pad >= 3 && w + 2 * pad >= 3);
        let rows = geo.col_rows();
        let n_cols = geo.col_cols();
        let img_len = c_in * h * w;
        let mut rng = fp_tensor::seeded_rng(seed ^ 0xF1);
        let x = rand_vec(batch * img_len, &mut rng);
        let wt = rand_vec(c_out * rows, &mut rng);
        let g = rand_vec(batch * c_out * n_cols, &mut rng);
        let dw0 = rand_vec(c_out * rows, &mut rng);
        let mut ws_s = Vec::new();
        let mut ws_p = Vec::new();

        let mut want_dw = dw0.clone();
        Scalar.conv2d_backward_weights(&x, &g, &mut want_dw, batch, c_out, &geo, &mut ws_s);
        let mut got_dw = dw0;
        Parallel::with_threads(2)
            .conv2d_backward_weights(&x, &g, &mut got_dw, batch, c_out, &geo, &mut ws_p);
        assert_within(&got_dw, &want_dw, "conv2d_backward_weights")?;

        let mut want_dx = vec![0.0; batch * img_len];
        Scalar.conv2d_backward_input(&wt, &g, &mut want_dx, batch, c_out, &geo, &mut ws_s);
        let mut got_dx = vec![0.0; batch * img_len];
        Parallel::with_threads(2)
            .conv2d_backward_input(&wt, &g, &mut got_dx, batch, c_out, &geo, &mut ws_p);
        assert_within(&got_dx, &want_dx, "conv2d_backward_input")?;
    }
}
