//! Layer probes: each layer's public entry points, timed from outside at
//! the shapes the workloads use (Medium backbone, batch 32; payloads of
//! 24 276 and 1 676 parameters). Every probe reports a median and its
//! sample count; none of them reads a workload's run, so the same table
//! comes out under every `--workload`.

use crate::stats::{median, sample, sample_with};
use crate::workloads::{fleet_acfg, Workload, QUANT_BITS};
use fedprophet::{
    assign_modules, max_feature_perturbation, partition_model, train_module_window, AuxHead,
    ModulePartition, ModuleTarget, WindowTrainConfig,
};
use fp_attack::{ModelTarget, NormBall, Pgd, PgdConfig};
use fp_data::{generate, partition_pathological, BatchIter, SynthConfig};
use fp_fl::aggregate::{trimmed_mean, weighted_average};
use fp_fl::{
    local_train, model_hash, AsyncScheduler, AsyncStopPoint, FlEnv, JFat, LocalTrainConfig,
    ScheduledTrainer, SyntheticTrainer,
};
use fp_hwsim::{forward_macs, Payload};
use fp_nn::spec::LayerKind;
use fp_nn::{
    apply_param_delta, param_diff, CascadeModel, CrossEntropyLoss, Mode, QuantizedUpdate, Sgd,
};
use fp_tensor::{backend_for_threads, seeded_rng, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One probe result: metric name, value in the metric's unit, samples.
pub type Probe = (String, f64, usize);

/// Feature-space PGD radius of the probes (APA walks it during a run;
/// the probe only needs a non-degenerate ball).
const FEATURE_EPS: f32 = 0.5;
const MU: f32 = 1e-4;
/// The codec's default chunk, as `QuantConfig::new` sets it.
const QUANT_CHUNK: usize = 256;

struct Ctx {
    out: Vec<Probe>,
    slice: Duration,
}

impl Ctx {
    /// Times `f` for one probe slice; `scale` converts seconds per call
    /// into the metric's unit.
    fn time(&mut self, name: &str, scale: f64, f: impl FnMut()) -> f64 {
        let s = sample(self.slice, 3, 100_000, f);
        self.push(name, median(&s) * scale, s.len())
    }

    /// Like [`Ctx::time`] for a probe that times only part of its body.
    fn time_with(&mut self, name: &str, scale: f64, f: impl FnMut() -> f64) -> f64 {
        let s = sample_with(self.slice, 3, 100_000, f);
        self.push(name, median(&s) * scale, s.len())
    }

    /// A rate: `work` units per call, reported as `work / seconds`.
    fn rate(&mut self, name: &str, work: f64, f: impl FnMut()) {
        let s = sample(self.slice, 3, 100_000, f);
        self.push(name, work / median(&s), s.len());
    }

    fn push(&mut self, name: &str, value: f64, n: usize) -> f64 {
        self.out.push((name.to_string(), value, n));
        value
    }
}

const MS: f64 = 1e3;
const US: f64 = 1e6;
const NS: f64 = 1e9;

/// Runs every probe, spending about `budget` in total. `smoke` shrinks
/// the environments to the test scale.
pub fn run_all(seed: u64, budget: Duration, smoke: bool) -> Vec<Probe> {
    // Clients train with single-threaded kernels inside the fan-out, so
    // that is the path the probes time.
    fp_tensor::parallel::set_thread_budget(1);
    let mut cx = Ctx {
        out: Vec::new(),
        slice: budget / 44,
    };
    let env = Workload::JfatSync.env(seed, smoke);
    let n_classes = env.data.train.n_classes();
    let mut rng = seeded_rng(seed ^ 0x9E0B);
    let mut model =
        fp_nn::models::instantiate(&env.reference_specs, &env.input_shape, n_classes, &mut rng);
    model.set_backend(&backend_for_threads(1));
    let part = partition_model(
        &env.reference_specs,
        &env.input_shape,
        env.cfg.batch_size,
        n_classes,
        env.r_min(),
    );
    let idx = env.splits[0].indices.clone();
    let batch: Vec<usize> = (0..env.cfg.batch_size.min(env.data.train.len())).collect();
    let (x, y) = env.data.train.batch(&batch);

    tensor(&mut cx, &env, &model);
    nn(&mut cx, &mut model, &part, &x, &y);
    data(&mut cx, &env, &idx, seed);
    let local_s = attack_and_local(&mut cx, &env, &mut model, &part, &x, &y, &idx, &mut rng);
    hwsim(&mut cx, &env, local_s);
    fl(&mut cx, &model, seed, smoke);
    core(&mut cx, &env, &model, &part, &idx, &mut rng);
    cx.out
}

/// The conv-as-GEMM shapes `(c_out, c_in·k², h_out·w_out)` of a spec.
fn conv_gemm_shapes(env: &FlEnv) -> Vec<(usize, usize, usize)> {
    let mut shape = env.input_shape.clone();
    let mut out = Vec::new();
    for atom in &env.reference_specs {
        for layer in &atom.layers {
            let next = layer.output_shape(&shape);
            if let LayerKind::Conv2d { c_in, c_out, k, .. } = layer.kind {
                out.push((c_out, c_in * k * k, next[1] * next[2]));
            }
            shape = next;
        }
    }
    out
}

fn tensor(cx: &mut Ctx, env: &FlEnv, model: &CascadeModel) {
    let backend = backend_for_threads(1);
    let mut rng = seeded_rng(1);
    let mut gemm = |cx: &mut Ctx, name: &str, shapes: &[(usize, usize, usize)], reps: usize| {
        let bufs: Vec<(Tensor, Tensor, Vec<f32>)> = shapes
            .iter()
            .map(|&(m, k, n)| {
                (
                    Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng),
                    Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng),
                    vec![0.0f32; m * n],
                )
            })
            .collect();
        let flop: usize = shapes.iter().map(|&(m, k, n)| 2 * m * k * n).sum();
        let mut bufs = bufs;
        cx.rate(name, (flop * reps) as f64 / 1e9, || {
            for _ in 0..reps {
                for ((a, b, out), &(m, k, n)) in bufs.iter_mut().zip(shapes) {
                    backend.matmul_into(a.data(), b.data(), out, m, k, n);
                }
            }
            black_box(&bufs);
        });
    };
    // One GEMM per sample per stage: a batch of 32 is 32 of each.
    gemm(
        cx,
        "tensor.gemm_stage_gflops",
        &conv_gemm_shapes(env),
        env.cfg.batch_size,
    );
    gemm(
        cx,
        "tensor.gemm_skinny_gflops",
        &[(512, 512, 8), (32, 32, 32)],
        1,
    );

    let x = model.flat_params();
    let (mut codes, mut scales, mut back) = (Vec::new(), Vec::new(), Vec::new());
    let melem = x.len() as f64 / 1e6;
    cx.rate("tensor.quantize_melem_per_s", melem, || {
        fp_tensor::quant::quantize_into(&x, QUANT_BITS, QUANT_CHUNK, 9, &mut codes, &mut scales);
        black_box(&codes);
    });
    cx.rate("tensor.dequantize_melem_per_s", melem, || {
        fp_tensor::quant::dequantize_into(&codes, &scales, QUANT_BITS, QUANT_CHUNK, &mut back);
        black_box(&back);
    });
}

fn nn(cx: &mut Ctx, model: &mut CascadeModel, part: &ModulePartition, x: &Tensor, y: &[usize]) {
    let ce = CrossEntropyLoss::new();
    cx.time("nn.cascade_fwd_ms", MS, || {
        black_box(model.forward(x, Mode::Train));
    });
    cx.time_with("nn.cascade_bwd_ms", MS, || {
        let logits = model.forward(x, Mode::Train);
        let (_, dlogits) = ce.forward(&logits, y);
        model.zero_grad();
        let t = Instant::now();
        black_box(model.backward(&dlogits));
        t.elapsed().as_secs_f64()
    });
    for (m, &(from, to)) in part.windows.iter().enumerate().take(4) {
        let z_in = if from == 0 {
            x.clone()
        } else {
            model.forward_range(x, 0, from, Mode::Eval)
        };
        let z_out = model.forward_range(&z_in, from, to, Mode::Train);
        let grad = Tensor::ones(z_out.shape());
        cx.time(&format!("nn.window_step_ms.m{m}"), MS, || {
            black_box(model.forward_range(&z_in, from, to, Mode::Train));
            black_box(model.backward_range(&grad, from, to));
        });
    }
    // Gradients are populated by the backward passes above.
    let mut opt = Sgd::new(0.9, 1e-4);
    cx.time("nn.sgd_step_us", US, || {
        opt.step(&mut model.params_mut(), 1e-6)
    });
    cx.time("nn.flat_params_us", US, || {
        let p = model.flat_params();
        model.set_flat_params(&p);
    });

    let from = model.flat_params();
    let to: Vec<f32> = from.iter().map(|p| p * 0.97 + 1e-4).collect();
    let enc = QuantizedUpdate::encode(&from, QUANT_BITS, QUANT_CHUNK, 5);
    cx.time("nn.qcodec_encode_us", US, || {
        black_box(QuantizedUpdate::encode(&from, QUANT_BITS, QUANT_CHUNK, 5));
    });
    cx.time("nn.qcodec_decode_us", US, || {
        black_box(enc.decode());
    });
    let delta = param_diff(&from, &to);
    cx.time("nn.param_diff_us", US, || {
        black_box(param_diff(&from, &to));
    });
    cx.time("nn.apply_delta_us", US, || {
        black_box(apply_param_delta(&from, &delta));
    });
}

fn data(cx: &mut Ctx, env: &FlEnv, idx: &[usize], seed: u64) {
    let mut it = BatchIter::new(&env.data.train, idx, env.cfg.batch_size, seed);
    cx.time("data.next_batch_us", US, || {
        black_box(it.next_batch());
    });
    cx.time("data.generate_ms", MS, || {
        black_box(generate(&SynthConfig::tiny(8, 16), seed));
    });
    cx.time("data.partition_ms", MS, || {
        black_box(partition_pathological(
            &env.data.train,
            env.cfg.n_clients,
            0.8,
            0.2,
            seed,
        ));
    });
}

/// PGD on the image and on a feature, adversarial evaluation, and one
/// jFAT client-round with and without its PGD. Returns the seconds of
/// the adversarial client-round.
#[allow(clippy::too_many_arguments)]
fn attack_and_local(
    cx: &mut Ctx,
    env: &FlEnv,
    model: &mut CascadeModel,
    part: &ModulePartition,
    x: &Tensor,
    y: &[usize],
    idx: &[usize],
    rng: &mut rand::rngs::StdRng,
) -> f64 {
    let steps = env.cfg.pgd_steps;
    let linf = PgdConfig {
        steps,
        ..PgdConfig::train_linf(env.cfg.eps0)
    };
    let pgd = Pgd::new(linf);
    cx.time("attack.pgd_input_ms", MS, || {
        let mut target = ModelTarget::new(model);
        black_box(pgd.attack(&mut target, x, y, rng));
    });

    // The third module's window when the partition has one, else the
    // last window that still ends in an auxiliary head.
    let m = 2.min(part.num_modules().saturating_sub(2));
    let (from, to) = part.windows[m];
    let mut aux = aux_for(model, to, rng);
    let z_in = if from == 0 {
        x.clone()
    } else {
        model.forward_range(x, 0, from, Mode::Eval)
    };
    let l2 = Pgd::new(PgdConfig {
        steps,
        alpha: None,
        ball: NormBall::L2(FEATURE_EPS),
        random_start: true,
        restarts: 1,
        clamp: None,
    });
    cx.time("attack.pgd_feature_ms", MS, || {
        let mut target = ModuleTarget::new(model, &mut aux, from, to, MU);
        black_box(l2.attack(&mut target, &z_in, y, rng));
    });
    cx.time("attack.eval_adv_ms", MS, || {
        black_box(env.val_adv(model, 64));
    });

    let mut ltc = LocalTrainConfig {
        iters: env.cfg.local_iters,
        batch_size: env.cfg.batch_size,
        lr: 0.03,
        momentum: env.cfg.momentum,
        weight_decay: env.cfg.weight_decay,
        pgd: Some(linf),
        seed: 11,
    };
    let adv_ms = cx.time("fl.local_train_ms", MS, || {
        black_box(local_train(&mut model.clone(), &env.data.train, idx, &ltc));
    });
    ltc.pgd = None;
    let std = sample(cx.slice, 3, 100_000, || {
        black_box(local_train(&mut model.clone(), &env.data.train, idx, &ltc));
    });
    let share = 1.0 - median(&std) * MS / adv_ms;
    cx.push("attack.pgd_share", share, std.len());
    adv_ms / MS
}

fn aux_for(model: &CascadeModel, to_atom: usize, rng: &mut rand::rngs::StdRng) -> AuxHead {
    let mut aux = AuxHead::new(
        "probe",
        &model.feature_shape(to_atom),
        model.n_classes(),
        rng,
    );
    aux.set_backend(&backend_for_threads(1));
    aux
}

fn hwsim(cx: &mut Ctx, env: &FlEnv, local_train_s: f64) {
    let cost = ScheduledTrainer::cost(&JFat::new(), env, 0, 0);
    let dev = env.client_device(0);
    let payload = Payload::full(env.model_param_bytes());
    const CALLS: usize = 1000;
    cx.time("hwsim.round_trip_ns", NS / CALLS as f64, || {
        for _ in 0..CALLS {
            // Every input opaque, so no part of the costing is hoisted.
            let (cost, dev, payload) = black_box((&cost, &dev, &payload));
            black_box(cost.dispatch_round_trip(dev, black_box(env.cfg.local_iters), payload));
        }
    });
    cx.time("hwsim.mem_req_us", US, || {
        black_box(env.full_mem_req());
    });
    cx.time("hwsim.forward_macs_us", US, || {
        black_box(forward_macs(&env.reference_specs, &env.input_shape));
    });
    // Unvalidated: the repository holds no reference hardware, so this
    // says how far the modelled device is from this host, not how
    // accurate the model is.
    let predicted = cost.local_training(&dev, env.cfg.local_iters).compute_s;
    cx.push(
        "hwsim.predicted_over_measured",
        predicted / local_train_s,
        1,
    );
}

fn fl(cx: &mut Ctx, model: &CascadeModel, seed: u64, smoke: bool) {
    let p = model.flat_params();
    let five: Vec<(Vec<f32>, f32)> = (0..5).map(|i| (p.clone(), 1.0 + i as f32)).collect();
    cx.time("fl.weighted_average_us", US, || {
        black_box(weighted_average(&five));
    });
    let sixteen: Vec<(usize, Vec<f32>)> = (0..16)
        .map(|i| (i, p.iter().map(|v| v * (1.0 + i as f32 * 1e-3)).collect()))
        .collect();
    let w = vec![1.0f32; 16];
    cx.time("fl.trimmed_mean_us", US, || {
        black_box(trimmed_mean(&sixteen, &w, 4));
    });

    let lazy = Workload::FleetAsyncDense.env(seed, smoke);
    const CALLS: usize = 1000;
    let mut k = 0usize;
    cx.time("fl.client_device_ns", NS / CALLS as f64, || {
        for _ in 0..CALLS {
            k = (k + 7919) % lazy.cfg.n_clients;
            black_box(lazy.client_device(k));
        }
    });

    // Mid-run checkpoint → JSON → resume, on the workload with every
    // plane's state in the checkpoint. The resumed run finishes the one
    // aggregation left, so `resume_ms` is parse + restore + one flush.
    let mut planes = Workload::FleetAsyncPlanes.env(seed, smoke);
    planes.cfg.rounds = Workload::FleetAsyncPlanes.lengths(true).0 + 1;
    let stop = AsyncStopPoint::after_agg(planes.cfg.rounds - 1);
    let sched = crate::workloads::planes_bare();
    let straight = model_hash(&sched.run(&planes).model);
    let ckpt = sched.run_until(&planes, stop);
    let mut json = String::new();
    cx.time("fl.checkpoint_ms", MS, || {
        json = serde_json::to_string(&ckpt).expect("checkpoint serializes");
    });
    let mut resumed = 0u64;
    cx.time("fl.resume_ms", MS, || {
        let back = serde_json::from_str(&json).expect("checkpoint parses");
        resumed = model_hash(&sched.resume(&planes, &back).model);
    });
    // 1 when the resumed run ends on the uninterrupted run's model.
    cx.push(
        "fl.resume_identical",
        f64::from(u8::from(resumed == straight)),
        1,
    );

    // The scoped-thread fan-out at the machine's budget against budget 1,
    // on a slice of `fleet_async_dense`.
    let mut dense = lazy;
    dense.cfg.rounds = if smoke { 50 } else { 5_000 };
    let slice = |threads: usize| {
        fp_tensor::parallel::set_thread_budget(threads);
        let s = sample(cx.slice, 3, 100, || {
            black_box(
                AsyncScheduler::new(SyntheticTrainer, fleet_acfg())
                    .run_streamed(&dense, &mut |_| {}),
            );
        });
        (median(&s), s.len())
    };
    let (wide, n) = slice(0);
    let (one, _) = slice(1);
    cx.push("fl.fanout_ratio", wide / one, n);
}

fn core(
    cx: &mut Ctx,
    env: &FlEnv,
    model: &CascadeModel,
    part: &ModulePartition,
    idx: &[usize],
    rng: &mut rand::rngs::StdRng,
) {
    let n = part.num_modules();
    let window = |from: usize, to: usize| WindowTrainConfig {
        from_atom: from,
        to_atom: to,
        epsilon: if from == 0 { env.cfg.eps0 } else { FEATURE_EPS },
        mu: MU,
        pgd_steps: env.cfg.pgd_steps,
        iters: env.cfg.local_iters,
        batch_size: env.cfg.batch_size,
        lr: 0.03,
        momentum: env.cfg.momentum,
        weight_decay: env.cfg.weight_decay,
        seed: 13,
        backend_threads: 1,
    };
    let mut train = |cx: &mut Ctx, name: &str, from: usize, to: usize| {
        let mut aux = (to < model.num_atoms()).then(|| aux_for(model, to, rng));
        let wtc = window(from, to);
        cx.time(name, MS, || {
            black_box(train_module_window(
                &mut model.clone(),
                aux.as_mut(),
                &env.data.train,
                idx,
                &wtc,
            ));
        });
    };
    for (m, &(from, to)) in part.windows.iter().enumerate().take(4) {
        train(cx, &format!("core.window_train_ms.m{m}"), from, to);
    }
    // A prophet client's window: the second module and the one after it.
    if n >= 3 {
        train(
            cx,
            "core.window_train_prophet_ms",
            part.windows[1].0,
            part.windows[2].1,
        );
    }
    if n >= 2 {
        let (from, to) = part.windows[0];
        let mut aux = aux_for(model, to, rng);
        let mut probe_model = model.clone();
        cx.time("core.probe_dz_ms", MS, || {
            black_box(max_feature_perturbation(
                &mut probe_model,
                &mut aux,
                from,
                to,
                &env.data.train,
                idx,
                env.cfg.eps0,
                MU,
                env.cfg.pgd_steps,
                env.cfg.batch_size,
                2,
                17,
            ));
        });
    }
    let n_classes = env.data.train.n_classes();
    cx.time("core.partition_us", US, || {
        black_box(partition_model(
            &env.reference_specs,
            &env.input_shape,
            env.cfg.batch_size,
            n_classes,
            env.r_min(),
        ));
    });
    const CALLS: usize = 1000;
    let budget = env.full_mem_req();
    cx.time("core.assign_us", US / CALLS as f64, || {
        for _ in 0..CALLS {
            black_box(assign_modules(part, 0, black_box(budget), 4.0, 1.0));
        }
    });
}
