use super::{direct::*, dw::*, gemm::*, lanes::*};
use crate::im2col::Conv2dGeometry;
use crate::isa::native_isa;

/// Manual tuning probe (`cargo test -p fp-tensor --release tune_probe
/// -- --ignored --nocapture`): times the 512³ hot shape under
/// different tile configurations.
#[test]
#[ignore]
fn tune_probe() {
    let n = 512usize;
    let a = crate::test_support::arb(n * n, 1);
    let b = crate::test_support::arb(n * n, 2);
    let mut out = vec![0.0f32; n * n];
    let flops = 2.0 * (n as f64).powi(3);
    for kc in [128usize, 256, 384] {
        for mc in [64usize, 128, 256, 512] {
            for nc in [256usize, 512] {
                let tiles = Tiles { mc, kc, nc };
                // warm
                out.fill(0.0);
                gemm_with_tiles(
                    native_isa(),
                    tiles,
                    n,
                    n,
                    n,
                    &mut out,
                    n,
                    |i, p| a[i * n + p],
                    BSrc::Rows(&|p, j0, dst| {
                        let w = dst.len();
                        dst.copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
                    }),
                );
                let reps = 5;
                let t = std::time::Instant::now();
                for _ in 0..reps {
                    out.fill(0.0);
                    gemm_with_tiles(
                        native_isa(),
                        tiles,
                        n,
                        n,
                        n,
                        &mut out,
                        n,
                        |i, p| a[i * n + p],
                        BSrc::Rows(&|p, j0, dst| {
                            let w = dst.len();
                            dst.copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
                        }),
                    );
                }
                let ns = t.elapsed().as_nanos() as f64 / reps as f64;
                println!(
                    "kc={kc:4} mc={mc:4} nc={nc:4}  {:8.0} ns  {:6.1} GFLOP/s",
                    ns,
                    flops / ns
                );
                std::hint::black_box(&out);
            }
        }
    }
}

/// Manual thread probe (`cargo test -p fp-tensor --release --lib
/// tune_conv_threads -- --ignored --nocapture`): per-call forward and
/// input-gradient time of the four Medium stages at the training (32)
/// and validation (64) batch on one and on two kernel threads,
/// interleaved, best of several trials, with each call's
/// multiply-accumulate count — the table `PAR_MACS_THRESHOLD` is read
/// from.
#[test]
#[ignore]
fn tune_conv_threads() {
    use crate::test_support::arb;
    println!("batch stage          MACs   fwd 1t   fwd 2t    dX 1t    dX 2t   (µs)");
    let stages = [
        (3usize, 12usize, 16usize),
        (12, 24, 8),
        (24, 32, 4),
        (32, 48, 2),
    ];
    for (batch, (c_in, c_out, hw)) in [32usize, 64]
        .into_iter()
        .flat_map(|b| stages.map(|st| (b, st)))
    {
        let geo = Conv2dGeometry {
            c_in,
            h: hw,
            w: hw,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let (img_len, out_len) = (c_in * hw * hw, c_out * hw * hw);
        let x = arb(batch * img_len, 1);
        let w = arb(c_out * geo.col_rows(), 2);
        let grad = arb(batch * out_len, 3);
        let mut out = vec![0.0f32; batch * out_len];
        let mut dx = vec![0.0f32; batch * img_len];
        let mut best = [f64::INFINITY; 4];
        for _ in 0..15 {
            for (i, threads) in [(0, 1), (1, 2), (0, 1), (1, 2)] {
                let t = std::time::Instant::now();
                for _ in 0..20 {
                    out.fill(0.0);
                    conv2d_forward_direct(
                        native_isa(),
                        &x,
                        &w,
                        None,
                        &mut out,
                        batch,
                        c_out,
                        &geo,
                        threads,
                    );
                }
                best[i] = best[i].min(t.elapsed().as_nanos() as f64 / 20.0 / 1e3);
                let t = std::time::Instant::now();
                for _ in 0..20 {
                    dx.fill(0.0);
                    conv2d_backward_input_direct(
                        native_isa(),
                        &w,
                        &grad,
                        &mut dx,
                        batch,
                        c_out,
                        &geo,
                        threads,
                    );
                }
                best[2 + i] = best[2 + i].min(t.elapsed().as_nanos() as f64 / 20.0 / 1e3);
            }
        }
        let macs = batch * c_out * geo.col_rows() * geo.col_cols();
        println!(
            "{batch:5} {c_in:2}->{c_out:2}@{hw:2}² {macs:9} {:8.1} {:8.1} {:8.1} {:8.1}",
            best[0], best[1], best[2], best[3]
        );
        std::hint::black_box((&out, &dx));
    }
}

/// Manual conv probe (`cargo test -p fp-tensor --release
/// tune_conv_probe -- --ignored --nocapture`): for the four Medium
/// stage convolutions at batch 32 on one thread, the `im2col` + GEMM
/// forward and dX next to the direct kernels that replace them at
/// stride 1, then the broadcast dW end to end and in its parts — the
/// staging copy, the gradient transpose and the kernel alone.
#[test]
#[ignore]
fn tune_conv_probe() {
    use crate::backend::{lowered_conv2d_backward_input, lowered_conv2d_forward, Parallel};
    use crate::test_support::arb;
    // Best of several short trials: the sandbox's noise is one-sided.
    let time = |f: &mut dyn FnMut()| {
        f();
        let trial = |f: &mut dyn FnMut()| {
            let t = std::time::Instant::now();
            for _ in 0..40 {
                f();
            }
            t.elapsed().as_nanos() as f64 / 40.0 / 1e3
        };
        (0..9).map(|_| trial(f)).fold(f64::INFINITY, f64::min)
    };
    let one = Parallel::with_threads(1);
    println!(
        "stage             fwd  direct-fwd      dX  direct   dW-bcst stage-in  gradT kernel  (µs)"
    );
    for (c_in, c_out, hw) in [
        (3usize, 12usize, 16usize),
        (12, 24, 8),
        (24, 32, 4),
        (32, 48, 2),
    ] {
        let geo = Conv2dGeometry {
            c_in,
            h: hw,
            w: hw,
            k: 3,
            stride: 1,
            pad: 1,
        };
        let batch = 32usize;
        let (rows, n_cols, img_len, out_len, g) =
            conv_shape(batch, c_out, &geo).expect("non-empty");
        let x = arb(batch * img_len, 1);
        let w = arb(c_out * rows, 2);
        let grad = arb(batch * out_len, 3);
        let mut out = vec![0.0f32; batch * out_len];
        let mut dx = vec![0.0f32; batch * img_len];
        let mut ws = Vec::new();
        let fwd = time(&mut || {
            out.fill(0.0);
            lowered_conv2d_forward(&one, &x, &w, None, &mut out, batch, c_out, &geo, &mut ws);
        });
        let direct_fwd = time(&mut || {
            out.fill(0.0);
            conv2d_forward_direct(native_isa(), &x, &w, None, &mut out, batch, c_out, &geo, 1);
        });
        let bwi = time(&mut || {
            dx.fill(0.0);
            lowered_conv2d_backward_input(&one, &w, &grad, &mut dx, batch, c_out, &geo, &mut ws);
        });
        let direct = time(&mut || {
            dx.fill(0.0);
            conv2d_backward_input_direct(native_isa(), &w, &grad, &mut dx, batch, c_out, &geo, 1);
        });
        let mut dw = vec![0.0f32; c_out * rows];
        let dw_bcast = time(&mut || {
            dw.fill(0.0);
            conv2d_backward_weights_broadcast(
                native_isa(),
                &x,
                &grad,
                &mut dw,
                batch,
                c_out,
                &geo,
                1,
            );
        });
        // The parts, over the same fold groups.
        let mut st = Staging::default();
        st.prepare(&geo, g);
        let stage_in = time(&mut || {
            for x_g in x.chunks(g * img_len) {
                st.stage(&geo, x_g);
            }
        });
        let ld = c_out.next_multiple_of(LANES);
        let mut gt = vec![0.0f32; g * n_cols * ld];
        let grad_t = time(&mut || {
            for g_g in grad.chunks(g * out_len) {
                for (g_s, gt_s) in g_g
                    .chunks_exact(out_len)
                    .zip(gt.chunks_exact_mut(n_cols * ld))
                {
                    transpose(native_isa(), g_s, n_cols, gt_s, ld, c_out, n_cols, ld);
                }
            }
            std::hint::black_box(&gt);
        });
        let mut dwt = vec![0.0f32; rows * ld];
        let kern = time(&mut || {
            let k = DwKernel {
                buf: &st.buf,
                base: &st.base,
                row_off: &st.row_off,
                ld,
            };
            for _ in 0..batch.div_ceil(g) {
                // SAFETY: `gt` holds the group's rows and `dwt` every
                // tap's, `ld` floats each; the tables index the staging.
                unsafe { dw_kernel(native_isa(), k, gt.as_ptr(), dwt.as_mut_ptr()) };
            }
        });
        println!(
            "{c_in:2}->{c_out:2}@{hw:2}² g={g:2} {fwd:7.1} {direct_fwd:11.1} {bwi:7.1} {direct:7.1} {dw_bcast:9.1} {stage_in:8.1} {grad_t:6.1} {kern:6.1}",
        );
        std::hint::black_box((&out, &dx, &dw));
    }
}
