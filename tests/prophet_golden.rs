//! FedProphet's loop, pinned bit-for-bit.
//!
//! `FedProphet::run_detailed` is the one algorithm not on the shared
//! engine; this suite is the contract any rewrite of its loop (and the
//! eventual engine port) is held to. Seven loop modes — every branch the
//! loop has: wait-all, over-selection + dropout + a median deadline,
//! dropout heavy enough to close rounds that merged nothing, the no-DMA /
//! no-APA ablation, an early stop that fires, the barrier-free async
//! module phase, and async + no-DMA with its own early stop — each at two
//! seeds on a balanced and an unbalanced fleet (28 runs of a 3-stage tiny
//! VGG, 16 rounds, so every module sees at least two rounds).
//!
//! Per run the literals are the final `model_hash`, an FNV-1a digest over
//! the bits of every `ProphetRound` field, every `eps_traces` entry and
//! every `delta_z_refs` entry, and `rounds.len()`. The kernels are
//! bit-identical across instruction sets, tile sizes and worker counts, so
//! the literals are machine-independent; the three scheduling policies are
//! also re-run at 1 / 2 / 4 worker threads against the same literals.

use fedprophet_repro::data::{generate, partition_pathological, SynthConfig};
use fedprophet_repro::fedprophet::{FedProphet, ProphetConfig, ProphetOutcome};
use fedprophet_repro::fl::{model_hash, AsyncConfig, DeadlinePolicy, FlConfig, FlEnv, SchedConfig};
use fedprophet_repro::hwsim::{sample_fleet, SamplingMode, CIFAR_POOL};
use fedprophet_repro::nn::models::{vgg_atom_specs, VggConfig};

const ROUNDS: usize = 16;

/// The four environments every mode runs on, in the column order of
/// [`GOLDEN`].
const ENVS: [(u64, SamplingMode); 4] = [
    (7, SamplingMode::Balanced),
    (7, SamplingMode::Unbalanced),
    (11, SamplingMode::Balanced),
    (11, SamplingMode::Unbalanced),
];

fn env(seed: u64, het: SamplingMode) -> FlEnv {
    let cfg = FlConfig::fast(ROUNDS, seed);
    let data = generate(&SynthConfig::tiny(4, 8), seed);
    let splits = partition_pathological(&data.train, cfg.n_clients, 0.8, 0.25, seed);
    let mut rng = fedprophet_repro::tensor::seeded_rng(seed ^ 0xF1EE7);
    let fleet = sample_fleet(&CIFAR_POOL, cfg.n_clients, het, &mut rng);
    let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16, 24]));
    FlEnv::new(data, splits, fleet, specs, cfg)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopMode {
    WaitAll,
    Deadline,
    EmptyRounds,
    NoDmaNoApa,
    PatienceFires,
    Async,
    AsyncNoDmaPatience,
}

const MODES: [LoopMode; 7] = [
    LoopMode::WaitAll,
    LoopMode::Deadline,
    LoopMode::EmptyRounds,
    LoopMode::NoDmaNoApa,
    LoopMode::PatienceFires,
    LoopMode::Async,
    LoopMode::AsyncNoDmaPatience,
];

impl LoopMode {
    fn config(self) -> ProphetConfig {
        let base = ProphetConfig::default();
        let async_agg = Some(AsyncConfig {
            concurrency: 4,
            buffer_k: 2,
            staleness_exp: 0.5,
            ..AsyncConfig::default()
        });
        match self {
            LoopMode::WaitAll => base,
            LoopMode::Deadline => ProphetConfig {
                sched: SchedConfig {
                    over_select: 1.5,
                    dropout_p: 0.15,
                    deadline: DeadlinePolicy::MedianMultiple(1.25),
                    min_completions: 1,
                },
                ..base
            },
            LoopMode::EmptyRounds => ProphetConfig {
                sched: SchedConfig {
                    dropout_p: 0.9,
                    ..SchedConfig::default()
                },
                ..base
            },
            LoopMode::NoDmaNoApa => ProphetConfig {
                use_dma: false,
                use_apa: false,
                ..base
            },
            LoopMode::PatienceFires => ProphetConfig {
                patience: 1,
                ..base
            },
            LoopMode::Async => ProphetConfig { async_agg, ..base },
            LoopMode::AsyncNoDmaPatience => ProphetConfig {
                use_dma: false,
                patience: 2,
                async_agg,
                ..base
            },
        }
    }
}

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn f32(&mut self, v: f32) {
        self.eat(u64::from(v.to_bits()));
    }
}

/// Digest of everything `run_detailed` reports besides the model: every
/// field of every round record, the per-module ε traces (with their
/// lengths, so a trace entry cannot migrate between modules unseen) and
/// the probed `delta_z_refs`.
fn outcome_digest(out: &ProphetOutcome) -> u64 {
    let mut h = Fnv::new();
    for r in &out.rounds {
        h.eat(r.round as u64);
        h.eat(r.module as u64);
        h.f32(r.epsilon);
        h.f32(r.train_loss);
        h.f32(r.val_clean);
        h.f32(r.val_adv);
        h.eat(r.latency_compute_s.to_bits());
        h.eat(r.latency_data_s.to_bits());
        h.eat(r.latency_transfer_s.to_bits());
        h.f32(r.mean_assigned);
        h.f32(r.mean_staleness);
        h.eat(r.round_time_s.to_bits());
        h.eat(r.completed as u64);
        h.eat(r.stragglers as u64);
        h.eat(r.dropped_out as u64);
    }
    for trace in &out.eps_traces {
        h.eat(trace.len() as u64);
        for &e in trace {
            h.f32(e);
        }
    }
    h.eat(out.delta_z_refs.len() as u64);
    for &d in &out.delta_z_refs {
        h.f32(d);
    }
    h.0
}

/// `(model_hash, outcome_digest, rounds.len())` of one run.
type Pin = (u64, u64, usize);

fn pin_of(out: &ProphetOutcome) -> Pin {
    (
        model_hash(&out.model),
        outcome_digest(out),
        out.rounds.len(),
    )
}

fn run(mode: LoopMode, seed: u64, het: SamplingMode) -> ProphetOutcome {
    FedProphet::new(mode.config()).run_detailed(&env(seed, het))
}

/// Rows follow [`MODES`], columns follow [`ENVS`]. Produced by the
/// two-arm `run_detailed` this suite was introduced against; a loop
/// rewrite passes it unchanged or is not a rewrite.
const GOLDEN: [[Pin; 4]; 7] = [
    // WaitAll
    [
        (0x75ca5d1abd6a9467, 0xb7964e11794faef0, 16),
        (0x3fe27d3f0225e350, 0x68e3a4034d684f12, 16),
        (0xc3344fa7ed562653, 0x400348b51db770b8, 16),
        (0x8ae50974f461a10d, 0x12879346276eba21, 16),
    ],
    // Deadline
    [
        (0x5c889bc693b4945d, 0xdcaca3fcfee89386, 16),
        (0x47c1030e16618b24, 0x9381f98c77e4f288, 16),
        (0x950eaecb94acc494, 0x04dc64f69b8ba543, 16),
        (0x7686a66e8feb3829, 0xbc2a16c67421eb77, 16),
    ],
    // EmptyRounds
    [
        (0xcb8f7366bc94e1ab, 0xf696e1978ca94e7b, 16),
        (0x67f647bf7ff42b4e, 0xbf98da9e762d66b9, 16),
        (0x9d9951f5097d7cda, 0x48f7c71c55d5d169, 16),
        (0xe0e3aa1453f86cc7, 0x4226d49811988605, 16),
    ],
    // NoDmaNoApa
    [
        (0xe0d6b8a4b0703bdf, 0x823bdcdf654d1964, 16),
        (0xe0d6b8a4b0703bdf, 0x8ef325b9062af25b, 16),
        (0xca31f87650353fab, 0x1612f0639faa2f97, 16),
        (0xca31f87650353fab, 0xdb473f034e1a2e44, 16),
    ],
    // PatienceFires
    [
        (0x93af56ad720f4914, 0x82a7077f613ec12b, 10),
        (0x1f604952febf2be7, 0x7cefb813cf16a479, 9),
        (0x971a5f9d068fbe42, 0x6482125e1c5c7a7b, 11),
        (0xd08b92252355e5e5, 0xfad02591e4f2d2c5, 12),
    ],
    // Async
    [
        (0xb665b5d2c4c19227, 0x66185bded39c0687, 16),
        (0x5c6bab209a2a2c2d, 0xc2c6d1da121dfbc8, 16),
        (0x75faefa5781bbe00, 0x3fd324611749572f, 16),
        (0x3b875b7c33814ef7, 0xbf0fe3d60a131710, 16),
    ],
    // AsyncNoDmaPatience
    [
        (0xb79e8428b5782dd0, 0x2a271ea70a2ebc05, 16),
        (0x658ab6a9fed40b61, 0x38854dec559eb327, 13),
        (0x0390df1b75bf0561, 0x86259e713437d566, 16),
        (0x56d09110bb61f454, 0xdedd24a771435719, 15),
    ],
];

/// `total_round_time()` bits of the [`LoopMode::Async`] runs, per env.
const ASYNC_TOTAL_ROUND_TIME_BITS: [u64; 4] = [
    0x3f52_2dda_1ca0_0fd8,
    0x3f5e_7430_0cce_080a,
    0x3f51_10a6_0f53_7740,
    0x3f78_4b5f_c7dc_63a1,
];

fn golden_row(mode: LoopMode) -> [Pin; 4] {
    GOLDEN[MODES.iter().position(|&m| m == mode).expect("listed mode")]
}

/// Runs `mode` on the four environments and holds it to its golden row;
/// a mismatch prints the whole measured row as a literal.
fn check_mode(mode: LoopMode) -> Vec<ProphetOutcome> {
    let outs: Vec<ProphetOutcome> = ENVS.iter().map(|&(s, h)| run(mode, s, h)).collect();
    let got: Vec<Pin> = outs.iter().map(pin_of).collect();
    let literal: Vec<String> = got
        .iter()
        .map(|(m, d, n)| format!("(0x{m:016x}, 0x{d:016x}, {n})"))
        .collect();
    assert_eq!(
        got,
        golden_row(mode),
        "{mode:?} moved; measured row: [{}]",
        literal.join(", ")
    );
    for out in &outs {
        assert!(
            out.partition.num_modules() >= 3,
            "the env must exercise a multi-module cascade"
        );
    }
    outs
}

#[test]
fn wait_all_loop_is_pinned() {
    for out in check_mode(LoopMode::WaitAll) {
        assert_eq!(out.rounds.len(), ROUNDS);
        assert!(out.rounds.iter().all(|r| r.completed == 4));
        assert!(out.rounds.iter().any(|r| r.mean_assigned > 1.0));
    }
}

#[test]
fn deadline_loop_is_pinned() {
    let outs = check_mode(LoopMode::Deadline);
    let cut: usize = outs
        .iter()
        .flat_map(|o| &o.rounds)
        .map(|r| r.stragglers)
        .sum();
    let lost: usize = outs
        .iter()
        .flat_map(|o| &o.rounds)
        .map(|r| r.dropped_out)
        .sum();
    assert!(
        cut > 0 && lost > 0,
        "deadline {cut} / dropout {lost} must both bite"
    );
}

#[test]
fn rounds_that_merge_nothing_are_pinned() {
    // Validation, APA and the record still run on a round whose every
    // selected client dropped out.
    for out in check_mode(LoopMode::EmptyRounds) {
        assert_eq!(out.rounds.len(), ROUNDS);
        assert!(out.rounds.iter().any(|r| r.completed == 0));
        assert!(out.rounds.iter().any(|r| r.completed > 0));
    }
}

#[test]
fn no_dma_no_apa_loop_is_pinned() {
    for out in check_mode(LoopMode::NoDmaNoApa) {
        assert!(out.rounds.iter().all(|r| r.mean_assigned == 1.0));
    }
}

#[test]
fn early_stop_is_pinned() {
    for out in check_mode(LoopMode::PatienceFires) {
        assert!(out.rounds.len() < ROUNDS, "patience 1 must fire");
    }
}

#[test]
fn async_phase_is_pinned() {
    let outs = check_mode(LoopMode::Async);
    let bits: Vec<u64> = outs
        .iter()
        .map(|o| o.total_round_time().to_bits())
        .collect();
    assert_eq!(
        bits, ASYNC_TOTAL_ROUND_TIME_BITS,
        "async virtual clock moved; measured: {bits:#018x?}"
    );
    for out in &outs {
        assert_eq!(out.rounds.len(), ROUNDS);
        assert!(out.rounds.iter().all(|r| r.completed == 2));
        assert!(out.rounds.iter().any(|r| r.mean_staleness > 0.0));
    }
}

#[test]
fn async_no_dma_early_stop_is_pinned() {
    let outs = check_mode(LoopMode::AsyncNoDmaPatience);
    assert!(
        outs.iter().any(|o| o.rounds.len() < ROUNDS),
        "patience 2 must fire on some fleet"
    );
    for out in &outs {
        assert!(out.rounds.iter().all(|r| r.mean_assigned == 1.0));
    }
}

/// Restores the hardware thread budget even if an assertion unwinds, so a
/// golden failure cannot pin sibling tests to one worker.
struct BudgetGuard;

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        fedprophet_repro::tensor::parallel::set_thread_budget(0);
    }
}

#[test]
fn scheduling_policies_are_thread_count_invariant() {
    let _guard = BudgetGuard;
    for mode in [LoopMode::WaitAll, LoopMode::Deadline, LoopMode::Async] {
        for workers in [1, 2, 4] {
            fedprophet_repro::tensor::parallel::set_thread_budget(workers);
            let got: Vec<Pin> = ENVS
                .iter()
                .map(|&(s, h)| pin_of(&run(mode, s, h)))
                .collect();
            assert_eq!(
                got,
                golden_row(mode),
                "{mode:?} at {workers} worker threads"
            );
        }
    }
}
