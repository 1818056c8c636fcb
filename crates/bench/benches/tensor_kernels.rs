//! Criterion micro-benchmarks for the numeric kernels everything else is
//! built on.
//!
//! The `matmul` group benches the `Scalar` reference against the
//! `Parallel` backend at matched sizes — run with
//! `FP_BENCH_JSON=BENCH_tensor.json cargo bench -p fp-bench --bench tensor_kernels`
//! to refresh the committed throughput record (the 512×512×512 case is
//! the PR gate: parallel must beat scalar by ≥ 2×).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fp_nn::{BatchNorm2d, Conv2d, Layer, MaxPool2d, Mode, QuantizedUpdate, ReLU};
use fp_tensor::{seeded_rng, Backend, Parallel, Scalar, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[32usize, 128, 512] {
        let mut rng = seeded_rng(0);
        let a = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[n, n], -1.0, 1.0, &mut rng);
        let backends: [(&str, &dyn Backend); 2] =
            [("scalar", &Scalar), ("parallel", &Parallel::new())];
        for (name, backend) in backends {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |bench, _| {
                bench.flops(2.0 * (n * n * n) as f64);
                bench.iter(|| std::hint::black_box(a.matmul_on(&b, backend)));
            });
        }
    }
    group.finish();
}

/// Non-square GEMM sweep on the `Parallel` packed engine: the shapes
/// the training stack actually runs (im2col'd convs are skinny —
/// few rows, conv-kernel-sized K) next to tall/thin edge cases, so the
/// GFLOP/s gate watches the dispatcher's edge-kernel picks, not just
/// the square 512³ headline number.
fn bench_matmul_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_shapes");
    // (m, k, n): conv fwd (32 ch out, 16·3·3 K, 16×16 pixels), wide-N
    // classifier head, tall-M batch GEMM, tiny-K rank update.
    for &(m, k, n) in &[
        (32usize, 144usize, 256usize),
        (8, 512, 512),
        (512, 512, 8),
        (128, 32, 128),
    ] {
        let mut rng = seeded_rng(3);
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        let backend = Parallel::new();
        let id = BenchmarkId::new("parallel", format!("{m}x{k}x{n}"));
        group.bench_with_input(id, &m, |bench, _| {
            bench.flops(2.0 * (m * k * n) as f64);
            bench.iter(|| std::hint::black_box(a.matmul_on(&b, &backend)));
        });
    }
    group.finish();
}

/// Conv layer forward and forward + backward: the `8x16x16x16` pair the
/// gate has tracked since PR 6, and the convolutions the paper's loop
/// actually runs — the four Medium stages (VGG-style, k = 3, pad 1,
/// pooled between) at the training batch. `forward` is what every PGD
/// step and evaluation pays per stage; `backward` is one training step.
fn bench_conv_forward_backward(c: &mut Criterion) {
    for &(shape, batch, c_in, c_out, hw) in &[
        ("8x16x16x16", 8usize, 16usize, 32usize, 16usize),
        ("32x3to12x16x16", 32, 3, 12, 16),
        ("32x12to24x8x8", 32, 12, 24, 8),
        ("32x24to32x4x4", 32, 24, 32, 4),
        ("32x32to48x2x2", 32, 32, 48, 2),
    ] {
        let mut rng = seeded_rng(1);
        let mut conv = Conv2d::new("c", c_in, c_out, 3, 1, 1, false, 0, 1, &mut rng);
        let x = Tensor::rand_uniform(&[batch, c_in, hw, hw], -1.0, 1.0, &mut rng);
        // One im2col'd GEMM: batch · c_out · (c_in·k·k) · (h_out·w_out) MACs.
        let gemm_flops = 2.0 * (batch * c_out * (c_in * 3 * 3) * (hw * hw)) as f64;
        c.bench_function(&format!("conv2d_forward_{shape}"), |b| {
            b.flops(gemm_flops);
            b.iter(|| std::hint::black_box(conv.forward(&x, Mode::Eval)));
        });
        let y = conv.forward(&x, Mode::Train);
        let g = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut rng);
        c.bench_function(&format!("conv2d_backward_{shape}"), |b| {
            // The iteration runs forward (to refresh cached activations)
            // plus the dW and dX GEMMs — three same-shape GEMMs total.
            b.flops(3.0 * gemm_flops);
            b.iter(|| {
                conv.forward(&x, Mode::Train);
                std::hint::black_box(conv.backward(&g))
            });
        });
    }
}

/// The non-GEMM layers between the convolutions — `BatchNorm2d`, `ReLU`
/// and 2×2 `MaxPool2d` — at the four Medium stages' conv outputs (batch
/// 32). Eval forward is what every PGD step pays; the backward rows time
/// `backward` alone (the forward that fills the cache runs once, outside
/// the loop). The pool rows read post-ReLU values, as the pool does in
/// every model (ties at zero change its branch behaviour). Ids are
/// `nn_layers/<row>/<b>x<c>x<h>x<w>`.
fn bench_nn_layers(c: &mut Criterion) {
    type Make = fn(usize) -> Box<dyn Layer>;
    let bn: Make = |ch| Box::new(BatchNorm2d::new("bn", ch, 0));
    let relu: Make = |_| Box::new(ReLU::new(0));
    let pool: Make = |_| Box::new(MaxPool2d::new(2, 2, 0));
    // (row, layer for `c` channels, forward mode, time backward instead)
    let rows: [(&str, Make, Mode, bool); 7] = [
        ("bn_forward_eval", bn, Mode::Eval, false),
        ("bn_forward_train", bn, Mode::Train, false),
        ("bn_backward_train", bn, Mode::Train, true),
        ("relu_forward", relu, Mode::Eval, false),
        ("relu_backward", relu, Mode::Eval, true),
        ("maxpool2x2_forward", pool, Mode::Eval, false),
        ("maxpool2x2_backward", pool, Mode::Eval, true),
    ];
    let mut group = c.benchmark_group("nn_layers");
    for (row, make, mode, backward) in rows {
        for &(ch, hw) in &[(12usize, 16usize), (24, 8), (32, 4), (48, 2)] {
            let mut rng = seeded_rng(5);
            let mut x = Tensor::rand_uniform(&[32, ch, hw, hw], -1.0, 1.0, &mut rng);
            if row.starts_with("maxpool") {
                x.map_inplace(|v| v.max(0.0));
            }
            let mut layer = make(ch);
            let y = layer.forward(&x, mode);
            let g = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut rng);
            group.bench_function(&format!("{row}/32x{ch}x{hw}x{hw}"), |b| {
                if backward {
                    b.iter(|| std::hint::black_box(layer.backward(&g)));
                } else {
                    b.iter(|| std::hint::black_box(layer.forward(&x, mode)));
                }
            });
        }
    }
    group.finish();
}

fn bench_softmax(c: &mut Criterion) {
    let mut rng = seeded_rng(2);
    let logits = Tensor::rand_uniform(&[256, 256], -5.0, 5.0, &mut rng);
    c.bench_function("softmax_rows_256x256", |b| {
        b.iter(|| std::hint::black_box(fp_tensor::softmax_rows(&logits)));
    });
}

/// The up-link codec at the payload `fpbench`'s `fleet_async_planes` ships
/// (24 276 parameters, 4-bit codes, 256-element chunks): the quantizer and
/// dequantizer alone, then through the packed wire format.
fn bench_quant(c: &mut Criterion) {
    const LEN: usize = 24_276;
    const BITS: u32 = 4;
    const CHUNK: usize = 256;
    let mut rng = seeded_rng(4);
    let x = Tensor::rand_uniform(&[LEN], -1.0, 1.0, &mut rng).into_vec();
    let (mut codes, mut scales, mut back) = (Vec::new(), Vec::new(), Vec::new());
    c.bench_function("quantize_q4_24276", |b| {
        b.iter(|| fp_tensor::quant::quantize_into(&x, BITS, CHUNK, 9, &mut codes, &mut scales));
    });
    c.bench_function("dequantize_q4_24276", |b| {
        b.iter(|| fp_tensor::quant::dequantize_into(&codes, &scales, BITS, CHUNK, &mut back));
    });
    c.bench_function("qcodec_encode_q4_24276", |b| {
        b.iter(|| std::hint::black_box(QuantizedUpdate::encode(&x, BITS, CHUNK, 9)));
    });
    let enc = QuantizedUpdate::encode(&x, BITS, CHUNK, 9);
    c.bench_function("qcodec_decode_q4_24276", |b| {
        b.iter(|| std::hint::black_box(enc.decode()));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_matmul, bench_matmul_shapes, bench_conv_forward_backward, bench_nn_layers,
        bench_softmax, bench_quant
}
criterion_main!(benches);
