//! Barrier-free async aggregation regression suite.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Golden schedule.** For a fixed seed, the exact aggregation order
//!    (merged client sets), staleness values, and virtual clock derive
//!    purely from the f64 hwsim cost model and the seeded RNG streams —
//!    machine-independent literals. The ledger and final-model hash are
//!    additionally identical at 1/2/4 worker threads.
//! 2. **Synchronous equivalence.** The degenerate async configuration
//!    (`concurrency = buffer_k = clients_per_round = n_clients`, `a = 0`)
//!    reproduces the wait-all synchronous round bit-for-bit, so the
//!    historical lockstep results stay pinned while the async path
//!    evolves.
//!    A planes-on twin (delta down-links, q8 up-links, trimmed mean vs
//!    sign-flippers) pins that every shared dispatch stage means the
//!    same thing on both engines.
//! 3. **Mid-flight checkpointing.** A checkpoint taken with buffered
//!    updates *and* clients still in flight round-trips through JSON and
//!    resumes bit-identically.
//! 4. **Streamed runs keep their clock.** `run_streamed` returns an empty
//!    ledger by design; `virtual_time_s()` still reports the run's clock
//!    on both engines.

use fedprophet_repro::data::{generate, partition_pathological, SynthConfig};
use fedprophet_repro::fl::{
    model_hash, AsyncCheckpoint, AsyncConfig, AsyncOutcome, AsyncScheduler, AsyncStopPoint,
    AttackKind, AttackPlan, ByzTrainer, CommConfig, EventScheduler, FlConfig, FlEnv, JFat,
    QuantConfig, QuantTrainer, RobustRule, SchedConfig, SyntheticTrainer,
};
use fedprophet_repro::hwsim::{sample_fleet, SamplingMode, CIFAR_POOL};
use fedprophet_repro::nn::models::{vgg_atom_specs, VggConfig};

fn env_with(rounds: usize, seed: u64, clients_per_round: Option<usize>) -> FlEnv {
    let mut cfg = FlConfig::fast(rounds, seed);
    if let Some(c) = clients_per_round {
        cfg.clients_per_round = c;
    }
    let data = generate(&SynthConfig::tiny(4, 8), seed);
    let splits = partition_pathological(&data.train, cfg.n_clients, 0.8, 0.25, seed);
    let mut rng = fedprophet_repro::tensor::seeded_rng(seed ^ 0xF1EE7);
    let fleet = sample_fleet(&CIFAR_POOL, cfg.n_clients, SamplingMode::Balanced, &mut rng);
    let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16, 24]));
    FlEnv::new(data, splits, fleet, specs, cfg)
}

fn env(rounds: usize, seed: u64) -> FlEnv {
    env_with(rounds, seed, None)
}

/// A lazy fleet of `n` clients, all selected every round (what the
/// synthetic-trainer tests run on).
fn lazy_env(n: usize, rounds: usize, seed: u64) -> FlEnv {
    let mut cfg = FlConfig::fast(rounds, seed);
    cfg.n_clients = n;
    cfg.clients_per_round = n;
    let data = generate(&SynthConfig::tiny(4, 8), seed);
    let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16]));
    FlEnv::lazy(data, &CIFAR_POOL, SamplingMode::Balanced, specs, cfg)
}

/// The async policy under test: more slots than the buffer flush size, so
/// staleness actually occurs, with a moderate discount.
fn golden_async() -> AsyncConfig {
    AsyncConfig {
        concurrency: 4,
        buffer_k: 2,
        staleness_exp: 0.5,
        ..AsyncConfig::default()
    }
}

const GOLDEN_SEED: u64 = 2024;
const GOLDEN_AGGS: usize = 6;

/// Restores the hardware thread budget even if an assertion unwinds.
struct BudgetGuard;

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        fedprophet_repro::tensor::parallel::set_thread_budget(0);
    }
}

fn run_golden(worker_threads: usize) -> AsyncOutcome {
    let _guard = BudgetGuard;
    fedprophet_repro::tensor::parallel::set_thread_budget(worker_threads);
    AsyncScheduler::new(JFat::new(), golden_async()).run(&env(GOLDEN_AGGS, GOLDEN_SEED))
}

/// Golden aggregation schedule for seed 2024: per aggregation the merged
/// clients (merge order) and their maximum staleness. Pure cost-model
/// arithmetic — machine-independent.
fn golden_schedule() -> Vec<(Vec<usize>, usize)> {
    GOLDEN_CLIENTS
        .iter()
        .zip(GOLDEN_MAX_STALENESS)
        .map(|(c, s)| (c.to_vec(), s))
        .collect()
}

const GOLDEN_CLIENTS: [[usize; 2]; GOLDEN_AGGS] = [[2, 5], [3, 4], [2, 5], [0, 4], [3, 4], [0, 4]];
const GOLDEN_MAX_STALENESS: [usize; GOLDEN_AGGS] = [0, 1, 1, 1, 1, 1];

/// Golden virtual aggregation times (seconds) for seed 2024, written at
/// full precision so the 1e-12 relative comparison round-trips exactly.
#[allow(clippy::excessive_precision)]
const GOLDEN_AGG_TIMES: [f64; GOLDEN_AGGS] = [
    2.76094070514935108e-5,
    6.63743978478287358e-5,
    9.11001780927370419e-5,
    1.24308810434001216e-4,
    1.78059949286476572e-4,
    2.15193649034645985e-4,
];

#[test]
fn async_golden_run_is_thread_count_invariant() {
    let a = run_golden(1);
    let b = run_golden(2);
    let c = run_golden(4);

    // Bit-identical ledger and final model at every worker budget.
    assert_eq!(a.ledger, b.ledger, "1 vs 2 workers");
    assert_eq!(a.ledger, c.ledger, "1 vs 4 workers");
    let h = model_hash(&a.model);
    assert_eq!(h, model_hash(&b.model), "final-model hash, 1 vs 2 workers");
    assert_eq!(h, model_hash(&c.model), "final-model hash, 1 vs 4 workers");

    // The golden aggregation order and staleness.
    let schedule: Vec<(Vec<usize>, usize)> = a
        .ledger
        .iter()
        .map(|r| (r.clients.clone(), r.max_staleness))
        .collect();
    assert_eq!(schedule, golden_schedule(), "golden aggregation schedule");

    // The golden virtual timeline.
    for (r, want) in a.ledger.iter().zip(GOLDEN_AGG_TIMES) {
        assert!(
            ((r.clock_s - want) / want).abs() < 1e-12,
            "agg {} clock {:.17e} vs golden {want:.17e}",
            r.agg,
            r.clock_s
        );
    }

    // Structural invariants of every ledger row.
    for (i, r) in a.ledger.iter().enumerate() {
        assert_eq!(r.agg, i);
        assert_eq!(r.merged, golden_async().buffer_k);
        assert_eq!(r.clients.len(), r.merged);
        assert!(r.round_time_s > 0.0);
        assert!(r.clock_s > 0.0);
        assert!(r.train_loss.is_finite());
        assert!(r.mean_staleness >= 0.0);
        assert!((0.0..=1.0 + 1e-6).contains(&r.weight_retained));
        assert!(r.mean_transfer_s > 0.0, "dispatches carry transfer cost");
        if r.max_staleness > 0 {
            assert!(
                r.weight_retained < 1.0,
                "stale merges must lose FedAvg mass at a > 0"
            );
        }
    }
    // With 4 slots and flushes of 2, some merges must be stale.
    assert!(a.ledger.iter().any(|r| r.max_staleness > 0));

    // Re-running the same seed reproduces the hash; a different seed
    // diverges.
    assert_eq!(model_hash(&run_golden(1).model), h);
    let other = AsyncScheduler::new(JFat::new(), golden_async()).run(&env(GOLDEN_AGGS, 7));
    assert_ne!(model_hash(&other.model), h);

    // Emit the ledger as a JSON artifact for CI.
    if let Ok(path) = std::env::var("FP_ASYNC_METRICS") {
        std::fs::write(path, a.ledger_json()).expect("write metrics artifact");
    }
}

#[test]
fn degenerate_async_config_is_bitwise_synchronous() {
    // concurrency = buffer_k = clients_per_round = n_clients and a = 0:
    // the async loop must reproduce the wait-all synchronous rounds
    // bit-for-bit — same merges, same losses, same validation, same
    // virtual clock, same final model.
    let seed = 99;
    let rounds = 3;
    let n = 8;
    let sync_env = env_with(rounds, seed, Some(n));
    let sync = EventScheduler::new(JFat::new(), SchedConfig::default()).run(&sync_env);
    let async_out = AsyncScheduler::new(JFat::new(), AsyncConfig::synchronous(n)).run(&sync_env);

    assert_eq!(
        model_hash(&sync.model),
        model_hash(&async_out.model),
        "final models must be bit-identical"
    );
    assert_eq!(sync.ledger.len(), async_out.ledger.len());
    for (s, a) in sync.ledger.iter().zip(&async_out.ledger) {
        assert_eq!(a.agg, s.round);
        assert_eq!(a.merged, s.completed);
        assert_eq!(a.clients, (0..n).collect::<Vec<_>>());
        assert_eq!(a.train_loss, s.train_loss, "round {} loss", s.round);
        assert_eq!(a.val_clean, s.val_clean, "round {} val_clean", s.round);
        assert_eq!(a.val_adv, s.val_adv, "round {} val_adv", s.round);
        assert_eq!(a.participation_weight, s.participation_weight);
        assert_eq!(a.clock_s, s.clock_s, "round {} clock", s.round);
        // round_time is stored as a clock difference on the async side;
        // identical up to one f64 rounding of the subtraction.
        assert!(
            ((a.round_time_s - s.round_time_s) / s.round_time_s).abs() < 1e-12,
            "round {} time {:.17e} vs {:.17e}",
            s.round,
            a.round_time_s,
            s.round_time_s
        );
        assert_eq!(a.mean_staleness, 0.0, "no merge can be stale");
        assert_eq!(a.max_staleness, 0);
        assert_eq!(a.weight_retained, 1.0, "a = 0 keeps full FedAvg mass");
    }
}

#[test]
fn degenerate_async_config_is_bitwise_synchronous_with_planes_on() {
    // The same degenerate config with every plane that rides a dispatch
    // switched on: delta down-links planned against the cache table, a
    // q8 up-link sized before costing, and a trimmed mean judging what
    // 25 % sign-flippers put on the wire. Both engines run these through
    // the same stages, so they must still agree to the bit.
    let n = 8;
    let env = lazy_env(n, 5, 99);
    let trainer = || {
        ByzTrainer::new(
            QuantTrainer::new(SyntheticTrainer, QuantConfig::new(8)),
            RobustRule::TrimmedMean { trim: 0.25 },
            Some(AttackPlan {
                fraction: 0.25,
                salt: 7,
                kind: AttackKind::SignFlip { scale: 4.0 },
            }),
        )
    };
    let comm = CommConfig::delta();
    let sync = EventScheduler::with_comm(trainer(), SchedConfig::default(), comm).run(&env);
    let async_out =
        AsyncScheduler::with_comm(trainer(), AsyncConfig::synchronous(n), comm).run(&env);

    assert_eq!(
        model_hash(&sync.model),
        model_hash(&async_out.model),
        "final models must be bit-identical"
    );
    assert_eq!(sync.ledger.len(), async_out.ledger.len());
    for (s, a) in sync.ledger.iter().zip(&async_out.ledger) {
        assert_eq!(a.clock_s, s.clock_s, "round {} clock", s.round);
        assert_eq!(a.down_bytes, s.down_bytes, "round {} down", s.round);
        assert_eq!(a.up_bytes, s.up_bytes, "round {} up", s.round);
        assert_eq!(a.delta_merged, s.delta_dispatches, "round {}", s.round);
        assert_eq!(a.filtered, s.filtered, "round {} filtered", s.round);
        assert_eq!(a.train_loss, s.train_loss, "round {} loss", s.round);
    }
    // The planes really were on.
    let dense_up = n as u64 * env.model_param_bytes();
    assert!(sync.ledger.iter().all(|s| s.up_bytes < dense_up / 3));
    assert!(sync.ledger.iter().any(|s| s.delta_dispatches > 0));
    assert!(sync.ledger.iter().any(|s| !s.filtered.is_empty()));
}

#[test]
fn streamed_runs_report_the_same_virtual_time() {
    // `virtual_time_s()` used to read the last ledger record, which a
    // streamed run does not keep — it reported 0.
    let env = lazy_env(8, 4, 31);
    let sync = EventScheduler::new(SyntheticTrainer, SchedConfig::default());
    let kept = sync.run(&env).virtual_time_s();
    let mut last = 0.0;
    let streamed = sync.run_streamed(&env, &mut |r| last = r.clock_s);
    assert!(streamed.ledger.is_empty());
    assert!(kept > 0.0);
    assert_eq!(streamed.virtual_time_s(), kept);
    assert_eq!(last, kept);

    let asyn = AsyncScheduler::new(SyntheticTrainer, golden_async());
    let kept = asyn.run(&env).virtual_time_s();
    let mut last = 0.0;
    let streamed = asyn.run_streamed(&env, &mut |r| last = r.clock_s);
    assert!(streamed.ledger.is_empty());
    assert!(kept > 0.0);
    assert_eq!(streamed.virtual_time_s(), kept);
    assert_eq!(last, kept);
}

#[test]
fn async_checkpoint_resumes_bit_identically_with_in_flight_clients() {
    let e = env(5, 77);
    let sched = AsyncScheduler::new(JFat::new(), golden_async());
    let full = sched.run(&e);

    // Interrupt after 2 aggregations plus one buffered update — so the
    // checkpoint carries both a non-empty buffer and in-flight clients —
    // round-trip it through JSON, resume to completion.
    let ckpt = sched.run_until(
        &e,
        AsyncStopPoint {
            aggregations: 2,
            buffered: 1,
        },
    );
    assert_eq!(ckpt.version, 2);
    assert_eq!(ckpt.ledger.len(), 2);
    assert_eq!(ckpt.buffer.len(), 1, "one update waits in the buffer");
    assert!(
        !ckpt.in_flight.is_empty(),
        "clients must be mid-training at the checkpoint"
    );
    for d in ckpt.buffer.iter().chain(&ckpt.in_flight) {
        assert!(d.finish_s >= d.dispatch_s);
        assert!(d.version <= ckpt.version);
        assert!(d.transfer_s > 0.0);
    }
    let json = serde_json::to_string(&ckpt).expect("checkpoint serializes");
    let restored: AsyncCheckpoint = serde_json::from_str(&json).expect("checkpoint deserializes");
    let resumed = sched.resume(&e, &restored);

    assert_eq!(resumed.ledger.len(), full.ledger.len());
    assert_eq!(&resumed.ledger[..2], &full.ledger[..2], "prefix agrees");
    assert_eq!(
        &resumed.ledger[2..],
        &full.ledger[2..],
        "aggregations after the checkpoint must be bit-identical"
    );
    assert_eq!(
        model_hash(&resumed.model),
        model_hash(&full.model),
        "final model must be bit-identical after resume"
    );
    assert!((resumed.virtual_time_s() - full.virtual_time_s()).abs() < 1e-15);
}

#[test]
#[should_panic(expected = "different master seed")]
fn async_resume_rejects_mismatched_seed() {
    let e = env(3, 5);
    let sched = AsyncScheduler::new(JFat::new(), golden_async());
    let ckpt = sched.run_until(&e, AsyncStopPoint::after_agg(1));
    let other = env(3, 6);
    let _ = sched.resume(&other, &ckpt);
}

#[test]
#[should_panic(expected = "different async policy")]
fn async_resume_rejects_mismatched_policy() {
    let e = env(3, 5);
    let ckpt = AsyncScheduler::new(JFat::new(), golden_async())
        .run_until(&e, AsyncStopPoint::after_agg(1));
    let _ = AsyncScheduler::new(JFat::new(), AsyncConfig::synchronous(8)).resume(&e, &ckpt);
}

#[test]
#[should_panic(expected = "different algorithm")]
fn async_resume_rejects_mismatched_algorithm() {
    let e = env(3, 5);
    let ckpt = AsyncScheduler::new(JFat::new(), golden_async())
        .run_until(&e, AsyncStopPoint::after_agg(1));
    let _ =
        AsyncScheduler::new(fedprophet_repro::fl::FedRbn::new(), golden_async()).resume(&e, &ckpt);
}

#[test]
fn async_beats_wait_all_to_equal_aggregation_count() {
    // The headline property: the same number of aggregations costs far
    // less virtual wall-clock without the barrier, because the clock
    // never waits for the slowest dispatch.
    let e = env(4, 33);
    let sync = EventScheduler::new(JFat::new(), SchedConfig::default()).run(&e);
    let async_out = AsyncScheduler::new(JFat::new(), golden_async()).run(&e);
    assert_eq!(sync.ledger.len(), async_out.ledger.len());
    assert!(
        async_out.virtual_time_s() < sync.virtual_time_s(),
        "async clock {} must beat the barrier clock {}",
        async_out.virtual_time_s(),
        sync.virtual_time_s()
    );
}
