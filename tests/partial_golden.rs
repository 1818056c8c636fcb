//! The partial-training baselines, pinned bit-for-bit.
//!
//! HeteroFL, FedRolex and FedDrop train width-sliced sub-models and
//! partial-average them back into the global model (paper §2.1,
//! Eq. 16–17). This suite is the contract any rewrite of the sub-model
//! extraction / scatter path is held to: every scheme on a tiny VGG and a
//! tiny ResNet (residual blocks and 1×1 projection shortcuts), through
//! the wait-all sync engine and the default async engine, both with delta
//! down-links on — so `payload_params` feeds the comm plane's diffs.
//!
//! Per run the literals are the final `model_hash`, an FNV-1a digest of
//! the ledger JSON, and an FNV-1a digest over the bits of
//! `payload_params(final model, round 1, client 2)`.

use fedprophet_repro::data::{generate, partition_pathological, SynthConfig};
use fedprophet_repro::fl::{
    model_hash, AsyncConfig, AsyncScheduler, CommConfig, EventScheduler, FlConfig, FlEnv,
    PartialTraining, SchedConfig, ScheduledTrainer,
};
use fedprophet_repro::hwsim::{sample_fleet, SamplingMode, CIFAR_POOL};
use fedprophet_repro::nn::models::{resnet_atom_specs, vgg_atom_specs, ResNetConfig, VggConfig};

const ROUNDS: usize = 6;
const SEED: u64 = 43;

#[derive(Debug, Clone, Copy)]
enum Arch {
    Vgg,
    ResNet,
}

#[derive(Debug, Clone, Copy)]
enum Engine {
    Sched,
    AsyncSched,
}

use Arch::{ResNet, Vgg};
use Engine::{AsyncSched, Sched};

fn env(arch: Arch) -> FlEnv {
    let cfg = FlConfig::fast(ROUNDS, SEED);
    let data = generate(&SynthConfig::tiny(4, 8), SEED);
    let splits = partition_pathological(&data.train, cfg.n_clients, 0.8, 0.25, SEED);
    let mut rng = fedprophet_repro::tensor::seeded_rng(SEED ^ 0xF1EE7);
    let fleet = sample_fleet(
        &CIFAR_POOL,
        cfg.n_clients,
        SamplingMode::Unbalanced,
        &mut rng,
    );
    let specs = match arch {
        Arch::Vgg => vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16, 24])),
        Arch::ResNet => resnet_atom_specs(&ResNetConfig::tiny(3, 8, 4, &[4, 8])),
    };
    FlEnv::new(data, splits, fleet, specs, cfg)
}

fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `[model_hash, ledger digest, payload digest]` of one run.
fn fingerprint(alg: PartialTraining, arch: Arch, engine: Engine) -> [u64; 3] {
    let env = env(arch);
    let (model, ledger) = match engine {
        Engine::Sched => {
            let out = EventScheduler::with_comm(alg, SchedConfig::default(), CommConfig::delta())
                .run(&env);
            let ledger = out.ledger_json();
            (out.model, ledger)
        }
        Engine::AsyncSched => {
            let out = AsyncScheduler::with_comm(alg, AsyncConfig::default(), CommConfig::delta())
                .run(&env);
            let ledger = out.ledger_json();
            (out.model, ledger)
        }
    };
    let payload = alg.payload_params(&env, &model, 1, 2);
    // Client 2 trains a narrow slice on both fleets: the literals cover
    // real gathers and scatters, not the identity map.
    assert!(
        payload.len() < model.param_count(),
        "client 2 is not sliced"
    );
    [
        model_hash(&model),
        fnv(ledger.bytes()),
        fnv(payload.iter().flat_map(|v| v.to_bits().to_le_bytes())),
    ]
}

/// `(scheme, arch, engine, [model_hash, ledger digest, payload digest])`,
/// generated by the slot-walking gather / scatter this suite was
/// written against.
const GOLDEN: [(&str, Arch, Engine, [u64; 3]); 12] = [
    (
        "heterofl",
        Vgg,
        Sched,
        [0xfe0f9a23b658959c, 0x8561d23b79d0916c, 0x1bbea5efe26d3679],
    ),
    (
        "fedrolex",
        Vgg,
        Sched,
        [0xd2c23b7b08622813, 0xab1604a32393919e, 0x83be18d919785461],
    ),
    (
        "feddrop",
        Vgg,
        Sched,
        [0xf24d9c0cb2311891, 0xea5b8cfbaa3c6e58, 0xcaca46bed061433e],
    ),
    (
        "heterofl",
        Vgg,
        AsyncSched,
        [0xe6ed792d89c3799f, 0xb017870568a69f0b, 0xf0b1cf2961552fa9],
    ),
    (
        "fedrolex",
        Vgg,
        AsyncSched,
        [0x6c955354c0c765f2, 0x152d53e990fc24ce, 0x9edf0f1b7bce2d89],
    ),
    (
        "feddrop",
        Vgg,
        AsyncSched,
        [0x27106b233e269b16, 0x7bb08499556bfa55, 0x60da77749f0598a1],
    ),
    (
        "heterofl",
        ResNet,
        Sched,
        [0xe82125a4d0e44a58, 0xfec91559df5cd706, 0x3c9883dc79c10998],
    ),
    (
        "fedrolex",
        ResNet,
        Sched,
        [0x07ebc9b277ccaf51, 0xc8f3310d458cfa2d, 0x1b59968b6dc99c4c],
    ),
    (
        "feddrop",
        ResNet,
        Sched,
        [0x80d05582b9e888c4, 0x6924af01321db58a, 0xd5a58755a90bb581],
    ),
    (
        "heterofl",
        ResNet,
        AsyncSched,
        [0x9962927cf6ac8d0f, 0xd67ef5cdeed1cc89, 0xab2373283e4728ae],
    ),
    (
        "fedrolex",
        ResNet,
        AsyncSched,
        [0x91d0d4b2438556a1, 0x6b15006700711e21, 0x51edbfdb64672b80],
    ),
    (
        "feddrop",
        ResNet,
        AsyncSched,
        [0xced424574e180fe5, 0x3a16d7b11b6a5a53, 0xe198d6236a9b0efe],
    ),
];

fn scheme(name: &str) -> PartialTraining {
    match name {
        "heterofl" => PartialTraining::heterofl(),
        "fedrolex" => PartialTraining::fedrolex(),
        "feddrop" => PartialTraining::feddrop(),
        other => panic!("unknown scheme {other}"),
    }
}

#[test]
fn partial_training_runs_match_their_literals() {
    let mut wrong = Vec::new();
    for &(name, arch, engine, want) in &GOLDEN {
        let got = fingerprint(scheme(name), arch, engine);
        if got != want {
            wrong.push(format!(
                "(\"{name}\", {arch:?}, {engine:?}, [{:#018x}, {:#018x}, {:#018x}]),",
                got[0], got[1], got[2]
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "runs off their literals:\n{}",
        wrong.join("\n")
    );
}
