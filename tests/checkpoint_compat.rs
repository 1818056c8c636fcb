//! Backward compatibility of the generalized server-state checkpoints.
//!
//! The committed fixtures under `tests/fixtures/` were emitted by the
//! pre-generalization schedulers (whose checkpoints hard-coded one
//! `fp-nn` model under the `"model"` key). The generalized
//! `SchedCheckpoint<S>` / `AsyncCheckpoint<S>` with the default
//! single-model [`ModelState`] wrapper must keep loading them and must
//! re-serialize them **byte-identically** — the wrapper's serialized
//! form *is* the plain model checkpoint.

use fedprophet_repro::data::{generate, partition_pathological, SynthConfig};
use fedprophet_repro::fl::{
    model_hash, AsyncCheckpoint, AsyncConfig, AsyncScheduler, AsyncStopPoint, AttackKind,
    AttackPlan, ByzTrainer, CommConfig, DeadlinePolicy, EventScheduler, FlConfig, FlEnv, JFat,
    OutagePlan, QuantConfig, QuantTrainer, RobustRule, SchedCheckpoint, SchedConfig, StragglePlan,
    SyntheticTrainer, TopologyConfig, TracePlan,
};
use fedprophet_repro::hwsim::{sample_fleet, SamplingMode, CIFAR_POOL};
use fedprophet_repro::nn::models::{vgg_atom_specs, VggConfig};

fn env(rounds: usize, seed: u64) -> FlEnv {
    let cfg = FlConfig::fast(rounds, seed);
    let data = generate(&SynthConfig::tiny(4, 8), seed);
    let splits = partition_pathological(&data.train, cfg.n_clients, 0.8, 0.25, seed);
    let mut rng = fedprophet_repro::tensor::seeded_rng(seed ^ 0xF1EE7);
    let fleet = sample_fleet(&CIFAR_POOL, cfg.n_clients, SamplingMode::Balanced, &mut rng);
    let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16, 24]));
    FlEnv::new(data, splits, fleet, specs, cfg)
}

#[test]
fn pre_refactor_sched_checkpoint_loads_and_reserializes_bit_identically() {
    let json = include_str!("fixtures/sched_checkpoint_v1.json");
    // Default type parameter = ModelState: the historical single-model
    // checkpoint shape.
    let ckpt: SchedCheckpoint = serde_json::from_str(json).expect("v1 checkpoint deserializes");
    assert_eq!(ckpt.next_round, 3);
    assert_eq!(ckpt.algorithm, "jFAT");
    assert_eq!(ckpt.ledger.len(), 3);
    let reserialized = serde_json::to_string(&ckpt).expect("serializes");
    assert_eq!(
        reserialized, json,
        "ModelState must serialize byte-identically to the v1 model checkpoint"
    );
    // Same property with every plane's optional keys populated.
    let v2 = include_str!("fixtures/sched_checkpoint_planes_v2.json");
    let ckpt: SchedCheckpoint = serde_json::from_str(v2).expect("v2 checkpoint deserializes");
    assert_eq!(serde_json::to_string(&ckpt).expect("serializes"), v2);
}

#[test]
fn pre_refactor_sched_checkpoint_resumes() {
    let json = include_str!("fixtures/sched_checkpoint_v1.json");
    let ckpt: SchedCheckpoint = serde_json::from_str(json).expect("v1 checkpoint deserializes");
    // The fixture's originating run: seed 77, 6 rounds, the e2e
    // deadline/dropout/over-selection policy.
    let sched = EventScheduler::new(
        JFat::new(),
        SchedConfig {
            over_select: 1.5,
            dropout_p: 0.15,
            deadline: DeadlinePolicy::MedianMultiple(1.25),
            min_completions: 1,
        },
    );
    let e = env(6, 77);
    let out = sched.resume(&e, &ckpt);
    assert_eq!(out.ledger.len(), 6, "resume finishes the remaining rounds");
    assert_eq!(
        &out.ledger[..3],
        &ckpt.ledger[..],
        "the checkpointed prefix is preserved verbatim"
    );
    // The continuation rides the machine-independent schedule streams:
    // clocks advance monotonically past the checkpoint.
    assert!(out.ledger[3..].iter().all(|r| r.clock_s > ckpt.clock_s));
    assert!(out.ledger.windows(2).all(|w| w[1].clock_s >= w[0].clock_s));
}

#[test]
fn pre_refactor_async_checkpoint_loads_and_reserializes_bit_identically() {
    let json = include_str!("fixtures/async_checkpoint_v1.json");
    let ckpt: AsyncCheckpoint = serde_json::from_str(json).expect("v1 checkpoint deserializes");
    assert_eq!(ckpt.version, 2);
    assert_eq!(ckpt.algorithm, "jFAT");
    assert_eq!(ckpt.buffer.len(), 1, "fixture was taken mid-flight");
    assert!(!ckpt.in_flight.is_empty());
    assert!(
        !ckpt.past_states.is_empty(),
        "pending dispatches keep their version's model alive"
    );
    let reserialized = serde_json::to_string(&ckpt).expect("serializes");
    assert_eq!(
        reserialized, json,
        "ModelState must serialize byte-identically to the v1 model checkpoint"
    );
    // Same property with every plane's optional keys populated.
    let v2 = include_str!("fixtures/async_checkpoint_planes_v2.json");
    let ckpt: AsyncCheckpoint = serde_json::from_str(v2).expect("v2 checkpoint deserializes");
    assert_eq!(serde_json::to_string(&ckpt).expect("serializes"), v2);
}

#[test]
fn pre_refactor_async_checkpoint_resumes() {
    let json = include_str!("fixtures/async_checkpoint_v1.json");
    let ckpt: AsyncCheckpoint = serde_json::from_str(json).expect("v1 checkpoint deserializes");
    let sched = AsyncScheduler::new(
        JFat::new(),
        AsyncConfig {
            concurrency: 4,
            buffer_k: 2,
            staleness_exp: 0.5,
            ..AsyncConfig::default()
        },
    );
    let e = env(5, 77);
    let out = sched.resume(&e, &ckpt);
    assert_eq!(out.ledger.len(), 5, "resume finishes the remaining aggs");
    assert_eq!(&out.ledger[..2], &ckpt.ledger[..]);
    assert!(out.ledger[2..]
        .iter()
        .all(|r| r.clock_s > ckpt.last_agg_clock_s));
}

// ------------------------------------------------------- planes-on (v2)
//
// The v1 fixtures predate every plane, so they pin none of the optional
// checkpoint/ledger keys. The v2 fixtures were captured from small
// synthetic runs with the comm-delta, two-tier topology, Byzantine,
// trace and quantization planes all enabled (the async one mid-flight),
// so a key rename, reorder or dropped omit-when-trivial rule in any
// plane's wire format breaks a byte comparison here.

fn planes_env(rounds: usize) -> FlEnv {
    let mut cfg = FlConfig::fast(rounds, 2025);
    cfg.n_clients = 16;
    cfg.clients_per_round = 8;
    let data = generate(&SynthConfig::tiny(4, 8), 2025);
    let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[4]));
    FlEnv::lazy(data, &CIFAR_POOL, SamplingMode::Balanced, specs, cfg)
}

fn planes_comm() -> CommConfig {
    CommConfig {
        delta_downloads: true,
        snapshot_retention: 2,
        cache_rows: 12,
    }
}

/// The stock diurnal mix with a hair-trigger thermal envelope (so the
/// `thermal`/`throttled` keys appear within a few rounds), correlated
/// outages and a timing adversary on the attack cohort.
fn planes_trace() -> TracePlan {
    let mut plan = TracePlan::diurnal(86_400.0);
    for class in &mut plan.classes {
        class.throttle_after_s = 0.0;
        class.throttle_per_s = 0.05;
        class.throttle_cap = 3.0;
        class.cooldown_s = 86_400.0;
    }
    plan.outage = Some(OutagePlan {
        p: 0.2,
        window_s: 5e-6,
        regions: 4,
    });
    plan.straggle = Some(StragglePlan {
        fraction: 0.3,
        salt: 5,
        factor: 1.5,
    });
    plan
}

type PlanesTrainer = ByzTrainer<QuantTrainer<SyntheticTrainer>>;

fn planes_trainer(rule: RobustRule, kind: AttackKind) -> PlanesTrainer {
    let quant = QuantConfig {
        bits: 4,
        chunk: 64,
        ef_rows: 3,
    };
    let plan = AttackPlan {
        fraction: 0.3,
        salt: 5,
        kind,
    };
    ByzTrainer::new(QuantTrainer::new(SyntheticTrainer, quant), rule, Some(plan))
}

const PLANES_SYNC_ROUNDS: usize = 6;
const PLANES_SYNC_STOP: usize = 4;

fn planes_sync_sched() -> EventScheduler<PlanesTrainer> {
    EventScheduler::with_trace(
        planes_trainer(
            RobustRule::TrimmedMean { trim: 0.25 },
            AttackKind::SignFlip { scale: 2.0 },
        ),
        SchedConfig {
            over_select: 1.5,
            dropout_p: 0.15,
            deadline: DeadlinePolicy::MedianMultiple(1.25),
            min_completions: 1,
        },
        planes_comm(),
        TopologyConfig::two_tier(3, 2),
        Some(planes_trace()),
    )
}

const PLANES_ASYNC_AGGS: usize = 5;
const PLANES_ASYNC_STOP: AsyncStopPoint = AsyncStopPoint {
    aggregations: 2,
    buffered: 1,
};

fn planes_async_sched() -> AsyncScheduler<PlanesTrainer> {
    AsyncScheduler::with_trace(
        planes_trainer(
            RobustRule::MultiKrum {
                f: 1,
                m: 4,
                clip: 1.5,
            },
            AttackKind::GaussNoise { sigma: 0.5 },
        ),
        AsyncConfig {
            concurrency: 8,
            buffer_k: 3,
            staleness_exp: 0.5,
            dropout_p: 0.1,
            timeout_s: Some(2e-5),
            adaptive_buffer: Some((2, 4)),
        },
        planes_comm(),
        TopologyConfig::two_tier(3, 2),
        Some(planes_trace()),
    )
}

#[test]
fn planes_v2_sched_checkpoint_resumes_to_the_uninterrupted_model() {
    let json = include_str!("fixtures/sched_checkpoint_planes_v2.json");
    let ckpt: SchedCheckpoint = serde_json::from_str(json).expect("v2 checkpoint deserializes");
    assert_eq!(ckpt.next_round, PLANES_SYNC_STOP);
    assert_eq!(ckpt.ledger.len(), PLANES_SYNC_STOP);
    assert!(
        ckpt.comm.is_some()
            && ckpt.topo.is_some()
            && ckpt.byz.is_some()
            && ckpt.trace.is_some()
            && ckpt.quant.is_some(),
        "every plane key is present"
    );
    let e = planes_env(PLANES_SYNC_ROUNDS);
    // The fixture is exactly what a live capture serializes to.
    let fresh = planes_sync_sched().run_until(&e, PLANES_SYNC_STOP);
    assert_eq!(serde_json::to_string(&fresh).unwrap(), json);
    let full = planes_sync_sched().run(&e);
    let resumed = planes_sync_sched().resume(&e, &ckpt);
    assert_eq!(full.ledger, resumed.ledger);
    assert_eq!(model_hash(&full.model), model_hash(&resumed.model));
}

#[test]
fn planes_v2_async_checkpoint_resumes_to_the_uninterrupted_model() {
    let json = include_str!("fixtures/async_checkpoint_planes_v2.json");
    let ckpt: AsyncCheckpoint = serde_json::from_str(json).expect("v2 checkpoint deserializes");
    assert_eq!(ckpt.version, PLANES_ASYNC_STOP.aggregations);
    assert!(
        !ckpt.buffer.is_empty()
            && !ckpt.in_flight.is_empty()
            && !ckpt.edge_buffers.is_empty()
            && !ckpt.upstream.is_empty(),
        "fixture was taken mid-flight on every tier"
    );
    assert!(
        ckpt.in_flight.iter().any(|d| d.cause.is_some()),
        "a trace-attributed loss is pending"
    );
    assert!(
        ckpt.comm.is_some()
            && ckpt.topo.is_some()
            && ckpt.byz.is_some()
            && ckpt.trace.is_some()
            && ckpt.quant.is_some()
            && ckpt.cur_k.is_some(),
        "every plane key is present"
    );
    let e = planes_env(PLANES_ASYNC_AGGS);
    let fresh = planes_async_sched().run_until(&e, PLANES_ASYNC_STOP);
    assert_eq!(serde_json::to_string(&fresh).unwrap(), json);
    let full = planes_async_sched().run(&e);
    let resumed = planes_async_sched().resume(&e, &ckpt);
    assert_eq!(full.ledger, resumed.ledger);
    assert_eq!(model_hash(&full.model), model_hash(&resumed.model));
}

// ------------------------------------------------------ resume rejections

/// The panic message of a `resume` that must refuse its checkpoint.
fn rejection(resume: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(resume))
        .expect_err("resume must reject the checkpoint");
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .expect("panic carries a message")
            .to_string(),
    }
}

/// One row of the rejection table: the field the panic must name, and the
/// mutation that makes the checkpoint disagree on it.
type Mismatch<C> = (&'static str, fn(&mut C));

/// Every policy check of both engines' `resume`, one mismatch at a time
/// against the planes-on fixtures (every optional key present): the panic
/// names the checkpoint type and the field that disagrees.
#[test]
fn resume_rejects_each_mismatched_policy_by_type_and_field() {
    let sync: [Mismatch<SchedCheckpoint>; 11] = [
        ("seed", |c| c.seed += 1),
        ("sched", |c| c.sched.dropout_p = 0.5),
        ("algorithm", |c| c.algorithm.push('x')),
        ("n_clients", |c| c.n_clients += 1),
        ("clients_per_round", |c| c.clients_per_round += 1),
        ("rounds", |c| c.rounds += 1),
        ("comm", |c| c.comm = None),
        ("topo", |c| c.topo = None),
        ("byz", |c| c.byz = None),
        ("trace", |c| c.trace = None),
        ("quant", |c| c.quant = None),
    ];
    let json = include_str!("fixtures/sched_checkpoint_planes_v2.json");
    let e = planes_env(PLANES_SYNC_ROUNDS);
    for (field, mutate) in sync {
        let mut ckpt: SchedCheckpoint = serde_json::from_str(json).unwrap();
        mutate(&mut ckpt);
        let msg = rejection(|| drop(planes_sync_sched().resume(&e, &ckpt)));
        let want = format!("SchedCheckpoint field `{field}`");
        assert!(msg.contains(&want), "{field}: {msg}");
    }

    let asyn: [Mismatch<AsyncCheckpoint>; 10] = [
        ("seed", |c| c.seed += 1),
        ("acfg", |c| c.acfg.staleness_exp = 2.0),
        ("algorithm", |c| c.algorithm.push('x')),
        ("n_clients", |c| c.n_clients += 1),
        ("rounds", |c| c.rounds += 1),
        ("comm", |c| c.comm = None),
        ("topo", |c| c.topo = None),
        ("byz", |c| c.byz = None),
        ("trace", |c| c.trace = None),
        ("quant", |c| c.quant = None),
    ];
    let json = include_str!("fixtures/async_checkpoint_planes_v2.json");
    let e = planes_env(PLANES_ASYNC_AGGS);
    for (field, mutate) in asyn {
        let mut ckpt: AsyncCheckpoint = serde_json::from_str(json).unwrap();
        mutate(&mut ckpt);
        let msg = rejection(|| drop(planes_async_sched().resume(&e, &ckpt)));
        let want = format!("AsyncCheckpoint field `{field}`");
        assert!(msg.contains(&want), "{field}: {msg}");
    }
}
