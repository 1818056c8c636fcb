//! Backward compatibility of the generalized server-state checkpoints.
//!
//! The committed fixtures under `tests/fixtures/` were emitted by the
//! pre-generalization schedulers (whose checkpoints hard-coded one
//! `fp-nn` model under the `"model"` key). The generalized
//! `SchedCheckpoint<S>` / `AsyncCheckpoint<S>` with the default
//! single-model server state, the `CascadeModel` itself, must keep
//! loading them and must re-serialize them **byte-identically** — a
//! model's serialized form *is* its plain `fp_nn` `Checkpoint`.

use fedprophet_repro::data::{generate, partition_pathological, SynthConfig};
use fedprophet_repro::fl::{
    model_hash, AsyncCheckpoint, AsyncConfig, AsyncScheduler, AsyncStopPoint, AttackKind,
    AttackPlan, ByzTrainer, CommConfig, DeadlinePolicy, EventScheduler, FlConfig, FlEnv, JFat,
    OutagePlan, PendingDispatch, QuantConfig, QuantTrainer, RobustRule, SchedCheckpoint,
    SchedConfig, StragglePlan, SyntheticTrainer, TopologyConfig, TracePlan,
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
    // Default type parameter = CascadeModel: the historical single-model
    // checkpoint shape.
    let ckpt: SchedCheckpoint = serde_json::from_str(json).expect("v1 checkpoint deserializes");
    assert_eq!(ckpt.next_round, 3);
    assert_eq!(ckpt.algorithm, "jFAT");
    assert_eq!(ckpt.ledger.len(), 3);
    let reserialized = serde_json::to_string(&ckpt).expect("serializes");
    assert_eq!(
        reserialized, json,
        "CascadeModel must serialize byte-identically to the v1 model checkpoint"
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
        "CascadeModel must serialize byte-identically to the v1 model checkpoint"
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
    planes_async_sched_on(TopologyConfig::two_tier(3, 2))
}

fn planes_async_sched_on(topo: TopologyConfig) -> AsyncScheduler<PlanesTrainer> {
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
        topo,
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

/// The past versions a checkpoint's pending dispatches train against —
/// in flight, at an edge, on the backhaul and, with `buffered`, in the
/// server buffer — ascending, without the current version.
fn pending_past_versions(c: &AsyncCheckpoint, buffered: bool) -> Vec<usize> {
    let edge = c.edge_buffers.iter().flat_map(|(_, es)| es);
    let upstream = c.upstream.iter().flat_map(|(_, bs)| bs);
    let mut versions: Vec<usize> = c
        .in_flight
        .iter()
        .chain(edge)
        .chain(upstream.flat_map(|(_, es)| es))
        .chain(c.buffer.iter().filter(|_| buffered))
        .map(|d| d.version)
        .filter(|&v| v != c.version)
        .collect();
    versions.sort_unstable();
    versions.dedup();
    versions
}

/// Past-state GC keeps exactly what replay needs. Right after a flush
/// (the collector has just run) `past_models` holds exactly the
/// non-current versions referenced by `in_flight ∪ edge_buffers ∪
/// upstream`; mid-version every version a pending dispatch (buffered
/// ones included) trains against is still retained. On a flat and a
/// two-tier planes-on run.
#[test]
fn past_models_are_exactly_the_versions_pending_dispatches_reference() {
    const AGGS: usize = 8;
    let e = planes_env(AGGS);
    for topo in [TopologyConfig::single(), TopologyConfig::two_tier(3, 2)] {
        let sched = planes_async_sched_on(topo);
        let mut retained_total = 0;
        for aggs in 1..AGGS {
            let c = sched.run_until(&e, AsyncStopPoint::after_agg(aggs));
            let retained: Vec<usize> = c.past_states.iter().map(|(v, _)| *v).collect();
            assert_eq!(
                retained,
                pending_past_versions(&c, false),
                "{topo:?} after aggregation {aggs}"
            );
            retained_total += retained.len();
            let mid = AsyncStopPoint {
                aggregations: aggs,
                buffered: 1,
            };
            let c = sched.run_until(&e, mid);
            let retained: Vec<usize> = c.past_states.iter().map(|(v, _)| *v).collect();
            for v in pending_past_versions(&c, true) {
                assert!(
                    retained.contains(&v),
                    "{topo:?} at {mid:?}: version {v} is pending but not retained"
                );
            }
        }
        assert!(
            retained_total > 0,
            "{topo:?}: no stop point retained a past version"
        );
    }
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

/// Resumes the planes-on async fixture after `corrupt` edits one of its
/// pending-dispatch fields.
fn resume_corrupted_async(corrupt: fn(&mut AsyncCheckpoint)) {
    let json = include_str!("fixtures/async_checkpoint_planes_v2.json");
    let mut ckpt: AsyncCheckpoint = serde_json::from_str(json).unwrap();
    corrupt(&mut ckpt);
    let e = planes_env(PLANES_ASYNC_AGGS);
    drop(planes_async_sched().resume(&e, &ckpt));
}

#[test]
#[should_panic(expected = "AsyncCheckpoint field `in_flight`: client 16 is outside the fleet")]
fn async_resume_rejects_an_in_flight_client_outside_the_fleet() {
    resume_corrupted_async(|c| c.in_flight[0].client = c.n_clients);
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `buffer`: client 2's version 3 is neither the current version 2"
)]
fn async_resume_rejects_a_buffered_version_ahead_of_the_checkpoint() {
    resume_corrupted_async(|c| c.buffer[0].version = c.version + 1);
}

#[test]
#[should_panic(expected = "AsyncCheckpoint field `edge_buffers`: client 19 is outside the fleet")]
fn async_resume_rejects_an_edge_buffered_client_outside_the_fleet() {
    resume_corrupted_async(|c| c.edge_buffers[1].1[0].client = c.n_clients + 3);
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `upstream`: client 5's version 0 is neither the current version 2 nor a retained past one"
)]
fn async_resume_rejects_an_upstream_version_that_is_not_retained() {
    resume_corrupted_async(|c| c.past_states.retain(|(v, _)| *v != 0));
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `dispatched_at_version`: client 16 is outside the fleet"
)]
fn async_resume_rejects_a_dispatched_client_outside_the_fleet() {
    resume_corrupted_async(|c| c.dispatched_at_version.push(c.n_clients));
}

#[test]
#[should_panic(expected = "AsyncCheckpoint field `in_flight`: client 9 is in flight twice")]
fn async_resume_rejects_a_client_in_flight_twice() {
    resume_corrupted_async(|c| c.in_flight.push(c.in_flight[0]));
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `in_flight`: 9 dispatches exceed the 8 concurrency slots"
)]
fn async_resume_rejects_more_in_flight_than_slots() {
    resume_corrupted_async(|c| {
        for client in [0, 1, 3] {
            let d = c.in_flight[0];
            c.in_flight.push(PendingDispatch { client, ..d });
        }
    });
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `in_flight`: client 9's finish -0.9599903633272165 is not a finite time at or after the checkpoint clock 0.0400096366727835"
)]
fn async_resume_rejects_an_in_flight_finish_before_the_clock() {
    resume_corrupted_async(|c| c.in_flight[0].finish_s = c.clock_s - 1.0);
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `in_flight`: client 9's finish NaN is not a finite time"
)]
fn async_resume_rejects_an_in_flight_finish_that_is_not_finite() {
    resume_corrupted_async(|c| c.in_flight[0].finish_s = f64::NAN);
}

/// Resumes the planes-on sync fixture after `corrupt` edits one of its
/// fields.
fn resume_corrupted_sync(corrupt: fn(&mut SchedCheckpoint)) {
    let json = include_str!("fixtures/sched_checkpoint_planes_v2.json");
    let mut ckpt: SchedCheckpoint = serde_json::from_str(json).unwrap();
    corrupt(&mut ckpt);
    let e = planes_env(PLANES_SYNC_ROUNDS);
    drop(planes_sync_sched().resume(&e, &ckpt));
}

#[test]
#[should_panic(expected = "SchedCheckpoint field `next_round`: round 9 is past the run's 6 rounds")]
fn sync_resume_rejects_a_next_round_past_the_run() {
    resume_corrupted_sync(|c| c.next_round = 9);
}

#[test]
#[should_panic(
    expected = "SchedCheckpoint field `next_round`: round 3 does not follow the ledger's 4 rounds"
)]
fn sync_resume_rejects_a_next_round_off_the_ledger() {
    resume_corrupted_sync(|c| c.next_round = 3);
}

#[test]
#[should_panic(
    expected = "SchedCheckpoint field `clock_s`: NaN is not a finite, non-negative virtual time"
)]
fn sync_resume_rejects_a_clock_that_is_not_a_virtual_time() {
    resume_corrupted_sync(|c| c.clock_s = f64::NAN);
}

/// The other clocks a sync resume refuses: ±∞ and a negative time.
#[test]
fn sync_resume_rejects_infinite_and_negative_clocks() {
    let json = include_str!("fixtures/sched_checkpoint_planes_v2.json");
    let e = planes_env(PLANES_SYNC_ROUNDS);
    for clock in [f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        let mut ckpt: SchedCheckpoint = serde_json::from_str(json).unwrap();
        ckpt.clock_s = clock;
        let msg = rejection(|| drop(planes_sync_sched().resume(&e, &ckpt)));
        let want = format!("SchedCheckpoint field `clock_s`: {clock} is not a finite");
        assert!(msg.contains(&want), "{clock}: {msg}");
    }
}

#[test]
#[should_panic(
    expected = "SchedCheckpoint field `clock_s`: 1.0800185174725827 is not the ledger's last clock 0.08001851747258272"
)]
fn sync_resume_rejects_a_clock_off_the_last_record() {
    resume_corrupted_sync(|c| c.clock_s += 1.0);
}

// The async ledger checks are the sync ones, through the same restore:
// `version` counts the ledger's records and `last_agg_clock_s` is the
// last record's clock.

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `version`: round 2 does not follow the ledger's 1 rounds"
)]
fn async_resume_rejects_a_version_off_the_ledger() {
    resume_corrupted_async(|c| drop(c.ledger.pop()));
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `last_agg_clock_s`: NaN is not a finite, non-negative virtual time"
)]
fn async_resume_rejects_a_last_aggregation_clock_that_is_not_a_virtual_time() {
    resume_corrupted_async(|c| c.last_agg_clock_s = f64::NAN);
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `last_agg_clock_s`: 0.030007342102694297 is not the ledger's last clock 0.0400073421026943"
)]
fn async_resume_rejects_a_last_aggregation_clock_off_the_last_record() {
    resume_corrupted_async(|c| c.last_agg_clock_s -= 0.01);
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `clock_s`: -1 is not a finite time at or after the last aggregation's clock 0.0400073421026943"
)]
fn async_resume_rejects_a_clock_before_the_last_aggregation() {
    resume_corrupted_async(|c| c.clock_s = -1.0);
}

#[test]
#[should_panic(expected = "AsyncCheckpoint field `clock_s`: NaN is not a finite time")]
fn async_resume_rejects_a_clock_that_is_not_finite() {
    resume_corrupted_async(|c| c.clock_s = f64::NAN);
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `cur_k`: Some(0) is not a flush threshold within the adaptive range Some((2, 4))"
)]
fn async_resume_rejects_a_flush_threshold_outside_its_range() {
    resume_corrupted_async(|c| c.cur_k = Some(0));
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `cur_k`: None is not a flush threshold within the adaptive range Some((2, 4))"
)]
fn async_resume_rejects_an_adaptive_run_without_a_flush_threshold() {
    resume_corrupted_async(|c| c.cur_k = None);
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `bundles`: 7 bundles cannot carry the 2 buffered entries under the flush threshold 4"
)]
fn async_resume_rejects_more_bundles_than_the_buffer_holds() {
    resume_corrupted_async(|c| c.bundles = 7);
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `upstream`: arrival NaN is not a finite time at or after the checkpoint clock"
)]
fn async_resume_rejects_a_backhaul_arrival_that_is_not_finite() {
    resume_corrupted_async(|c| c.upstream[0].1[0].0 = f64::NAN);
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `upstream`: arrival 0 is not a finite time at or after the checkpoint clock 0.0400096366727835"
)]
fn async_resume_rejects_a_backhaul_arrival_before_the_clock() {
    resume_corrupted_async(|c| c.upstream[0].1[0].0 = 0.0);
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `buffer`: client 2's dispatch at version 1 is pending twice"
)]
fn async_resume_rejects_a_dispatch_buffered_twice() {
    resume_corrupted_async(|c| c.buffer.push(c.buffer[0]));
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `dispatched_at_version`: client 14 is pending at the current version 2 but was not dispatched at it"
)]
fn async_resume_rejects_a_current_dispatch_missing_from_the_dispatched_set() {
    resume_corrupted_async(|c| c.dispatched_at_version.retain(|&k| k != 14));
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `edge_buffers`: edge 99 is outside the topology's 3 aggregators"
)]
fn async_resume_rejects_an_edge_outside_the_topology() {
    resume_corrupted_async(|c| c.edge_buffers[1].0 = 99);
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `edge_buffers`: client 14 sits under edge 1, not its own edge 0"
)]
fn async_resume_rejects_an_entry_under_another_edge() {
    resume_corrupted_async(|c| {
        let d = c.edge_buffers[0].1.remove(0);
        c.edge_buffers[1].1.push(d);
    });
}

/// Resumes a flat-topology capture of the planes-on async run after
/// `corrupt` edits it.
fn resume_corrupted_flat_async(corrupt: fn(&mut AsyncCheckpoint)) {
    let e = planes_env(PLANES_ASYNC_AGGS);
    let sched = planes_async_sched_on(TopologyConfig::single());
    let mut ckpt = sched.run_until(&e, PLANES_ASYNC_STOP);
    corrupt(&mut ckpt);
    drop(sched.resume(&e, &ckpt));
}

#[test]
#[should_panic(expected = "AsyncCheckpoint field `bundles`: 1 bundles on a flat topology")]
fn async_resume_rejects_bundles_on_a_flat_topology() {
    resume_corrupted_flat_async(|c| c.bundles = 1);
}

#[test]
#[should_panic(expected = "AsyncCheckpoint field `buffer`: 4 entries reach the flush threshold 4")]
fn async_resume_rejects_a_buffer_that_would_have_flushed() {
    resume_corrupted_flat_async(|c| {
        while c.buffer.len() < c.cur_k.unwrap() {
            let mut d = c.buffer[0];
            d.client = (0..c.n_clients)
                .find(|k| c.buffer.iter().all(|b| b.client != *k))
                .unwrap();
            c.buffer.push(d);
        }
    });
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `edge_buffers`: edge 0 is outside the topology's 0 aggregators"
)]
fn async_resume_rejects_edge_buffers_on_a_flat_topology() {
    resume_corrupted_flat_async(|c| c.edge_buffers.push((0, vec![c.buffer[0]])));
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `dispatch_count`: 48 dispatches, but the ledger, the pending dispatches and the losses since the last aggregation account for 1048"
)]
fn async_resume_rejects_timeouts_the_dispatch_count_does_not_cover() {
    resume_corrupted_async(|c| c.timed_out = 1000);
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `edge_flushes`: 500 edge flushes since the last aggregation, but only 3 bundles are buffered or on the backhaul"
)]
fn async_resume_rejects_more_edge_flushes_than_forwarded_bundles() {
    resume_corrupted_async(|c| c.edge_flushes = 500);
}

#[test]
#[should_panic(
    expected = "AsyncCheckpoint field `edge_flushes`: 1 edge flushes on a flat topology"
)]
fn async_resume_rejects_edge_flushes_on_a_flat_topology() {
    resume_corrupted_flat_async(|c| c.edge_flushes = 1);
}
