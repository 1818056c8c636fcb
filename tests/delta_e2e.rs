//! Communication-plane regression suite: delta-encoded, cache-aware
//! downloads.
//!
//! Four guarantees are pinned here:
//!
//! 1. **Exactness.** Delta downloads are a pure *costing* optimization —
//!    they reconstruct the payload bit-for-bit — so a delta-enabled run
//!    produces the **identical final model hash** to a full-payload run
//!    whenever the merge sets are latency-independent (wait-all
//!    barriers), while strictly reducing cumulative down-link bytes.
//! 2. **Checkpointing.** Both schedulers' checkpoints carry the cache
//!    table + retained snapshots and resume bit-identically with deltas
//!    enabled; a checkpoint taken under a different communication-plane
//!    policy is rejected by name.
//! 3. **Async dropout/timeouts.** Per-dispatch dropout with the
//!    server-side timeout reclaims slots deterministically (the ledger
//!    counts the reclaims), stays thread-count invariant, and resumes
//!    mid-flight with lost dispatches outstanding.
//! 4. **Adaptive buffer.** The staleness-scaled flush threshold stays in
//!    bounds, is recorded per aggregation, and is off by default.

use fedprophet_repro::data::{generate, partition_pathological, SynthConfig};
use fedprophet_repro::fl::{
    model_hash, AsyncCheckpoint, AsyncConfig, AsyncOutcome, AsyncScheduler, AsyncStopPoint,
    CommConfig, EventScheduler, FlConfig, FlEnv, PartialTraining, SchedConfig, SchedOutcome,
};
use fedprophet_repro::hwsim::{sample_fleet, SamplingMode, CIFAR_POOL};
use fedprophet_repro::nn::models::{vgg_atom_specs, VggConfig};

fn env_with(rounds: usize, seed: u64, clients_per_round: usize) -> FlEnv {
    let mut cfg = FlConfig::fast(rounds, seed);
    cfg.clients_per_round = clients_per_round;
    let data = generate(&SynthConfig::tiny(4, 8), seed);
    let splits = partition_pathological(&data.train, cfg.n_clients, 0.8, 0.25, seed);
    let mut rng = fedprophet_repro::tensor::seeded_rng(seed ^ 0xF1EE7);
    let fleet = sample_fleet(&CIFAR_POOL, cfg.n_clients, SamplingMode::Balanced, &mut rng);
    let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16, 24]));
    FlEnv::new(data, splits, fleet, specs, cfg)
}

fn delta_comm() -> CommConfig {
    CommConfig {
        delta_downloads: true,
        snapshot_retention: 6,
        ..CommConfig::default()
    }
}

/// Small cohorts are what make HeteroFL deltas sparse: a round's merge
/// only touches the participants' width slices, so a wide client
/// re-selected later downloads just the channels the interim (narrower)
/// cohorts actually changed.
fn delta_sched() -> SchedConfig {
    SchedConfig {
        dropout_p: 0.15,
        ..SchedConfig::default()
    }
}

const DELTA_SEED: u64 = 2025;
const DELTA_ROUNDS: usize = 10;

fn run_sync(comm: Option<CommConfig>) -> SchedOutcome {
    let e = env_with(DELTA_ROUNDS, DELTA_SEED, 3);
    let alg = PartialTraining::heterofl();
    match comm {
        None => EventScheduler::new(alg, delta_sched()).run(&e),
        Some(c) => EventScheduler::with_comm(alg, delta_sched(), c).run(&e),
    }
}

#[test]
fn delta_downloads_preserve_the_model_and_cut_bytes() {
    let full = run_sync(None);
    let delta = run_sync(Some(delta_comm()));

    // Payload encoding must not touch the training math: under the
    // wait-all barrier the merge sets are latency-independent, so the
    // final models are bit-identical.
    assert_eq!(
        model_hash(&full.model),
        model_hash(&delta.model),
        "delta downloads must reconstruct payloads bit-for-bit"
    );
    assert_eq!(full.ledger.len(), delta.ledger.len());
    for (f, d) in full.ledger.iter().zip(&delta.ledger) {
        assert_eq!(f.completed, d.completed, "round {}", f.round);
        assert_eq!(f.dropped_out, d.dropped_out, "round {}", f.round);
        assert_eq!(f.train_loss, d.train_loss, "round {}", f.round);
        assert_eq!(f.val_clean, d.val_clean, "round {}", f.round);
        assert_eq!(f.val_adv, d.val_adv, "round {}", f.round);
        // The dense update upload is unchanged; only downloads compress.
        assert_eq!(f.up_bytes, d.up_bytes, "round {}", f.round);
        assert!(d.down_bytes <= f.down_bytes, "round {}", f.round);
        assert_eq!(f.delta_dispatches, 0, "full-payload run never deltas");
        // Transfer relief can only shorten rounds, never lengthen them.
        assert!(
            d.round_time_s <= f.round_time_s + 1e-18,
            "round {}: {} vs {}",
            f.round,
            d.round_time_s,
            f.round_time_s
        );
    }
    let full_down: u64 = full.ledger.iter().map(|r| r.down_bytes).sum();
    let delta_down: u64 = delta.ledger.iter().map(|r| r.down_bytes).sum();
    let delta_count: usize = delta.ledger.iter().map(|r| r.delta_dispatches).sum();
    assert!(delta_count > 0, "the cache must produce delta dispatches");
    assert!(
        delta_down < full_down,
        "delta run must move strictly fewer down-link bytes: {delta_down} vs {full_down}"
    );
    assert!(delta.virtual_time_s() <= full.virtual_time_s());
}

#[test]
fn delta_runs_are_deterministic_and_resume_bit_identically() {
    let e = env_with(DELTA_ROUNDS, DELTA_SEED, 3);
    let sched = EventScheduler::with_comm(PartialTraining::heterofl(), delta_sched(), delta_comm());
    let a = sched.run(&e);
    let b = sched.run(&e);
    assert_eq!(a.ledger, b.ledger);
    assert_eq!(model_hash(&a.model), model_hash(&b.model));

    // Mid-run checkpoint: the comm state (cache table + snapshots) rides
    // along and the continuation is bit-identical.
    let ckpt = sched.run_until(&e, 4);
    assert!(ckpt.comm.is_some(), "enabled comm plane must checkpoint");
    let json = serde_json::to_string(&ckpt).expect("checkpoint serializes");
    assert!(json.contains("\"comm\""));
    let restored: fedprophet_repro::fl::SchedCheckpoint<fedprophet_repro::nn::CascadeModel> =
        serde_json::from_str(&json).expect("checkpoint deserializes");
    let resumed = sched.resume(&e, &restored);
    assert_eq!(resumed.ledger, a.ledger);
    assert_eq!(model_hash(&resumed.model), model_hash(&a.model));
}

#[test]
#[should_panic(expected = "communication-plane policy")]
fn resume_rejects_mismatched_comm_policy() {
    let e = env_with(4, 5, 3);
    let with = EventScheduler::with_comm(PartialTraining::heterofl(), delta_sched(), delta_comm());
    let ckpt = with.run_until(&e, 2);
    let without = EventScheduler::new(PartialTraining::heterofl(), delta_sched());
    let _ = without.resume(&e, &ckpt);
}

#[test]
fn disabled_comm_resumes_regardless_of_inert_retention_knob() {
    // A disabled plane checkpoints as `None`; the retention knob is
    // inert, so a non-default value must not be mistaken for a policy
    // change on resume.
    let e = env_with(4, 5, 3);
    let sched = EventScheduler::with_comm(
        PartialTraining::heterofl(),
        delta_sched(),
        CommConfig {
            delta_downloads: false,
            snapshot_retention: 9,
            ..CommConfig::default()
        },
    );
    let full = sched.run(&e);
    let ckpt = sched.run_until(&e, 2);
    assert!(ckpt.comm.is_none(), "disabled plane stores no comm state");
    let resumed = sched.resume(&e, &ckpt);
    assert_eq!(resumed.ledger, full.ledger);
    assert_eq!(model_hash(&resumed.model), model_hash(&full.model));
}

// ------------------------------------------------------------------ async

fn async_delta_cfg() -> AsyncConfig {
    AsyncConfig {
        concurrency: 4,
        buffer_k: 2,
        staleness_exp: 0.5,
        ..AsyncConfig::default()
    }
}

fn run_async_delta(worker_threads: usize) -> AsyncOutcome {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            fedprophet_repro::tensor::parallel::set_thread_budget(0);
        }
    }
    let _guard = Guard;
    fedprophet_repro::tensor::parallel::set_thread_budget(worker_threads);
    let e = env_with(6, 77, 6);
    AsyncScheduler::with_comm(PartialTraining::heterofl(), async_delta_cfg(), delta_comm()).run(&e)
}

#[test]
fn async_delta_run_is_thread_invariant_and_compresses_downloads() {
    let a = run_async_delta(1);
    let b = run_async_delta(2);
    let c = run_async_delta(4);
    assert_eq!(a.ledger, b.ledger, "1 vs 2 workers");
    assert_eq!(a.ledger, c.ledger, "1 vs 4 workers");
    let h = model_hash(&a.model);
    assert_eq!(h, model_hash(&b.model));
    assert_eq!(h, model_hash(&c.model));

    let delta_merged: usize = a.ledger.iter().map(|r| r.delta_merged).sum();
    let down: u64 = a.ledger.iter().map(|r| r.down_bytes).sum();
    let up: u64 = a.ledger.iter().map(|r| r.up_bytes).sum();
    assert!(
        delta_merged > 0,
        "async flushes must merge delta dispatches"
    );
    assert!(
        down < up,
        "compressed downloads must undercut the dense uploads: {down} vs {up}"
    );
    for r in &a.ledger {
        assert!(r.down_bytes > 0 && r.up_bytes > 0);
        assert!(r.delta_merged <= r.merged);
        assert_eq!(r.flush_k, None, "static buffer records no flush_k");
    }
}

#[test]
fn async_delta_checkpoint_resumes_bit_identically() {
    let e = env_with(5, 77, 6);
    let sched =
        AsyncScheduler::with_comm(PartialTraining::heterofl(), async_delta_cfg(), delta_comm());
    let full = sched.run(&e);
    let ckpt = sched.run_until(
        &e,
        AsyncStopPoint {
            aggregations: 2,
            buffered: 1,
        },
    );
    assert!(ckpt.comm.is_some());
    let json = serde_json::to_string(&ckpt).expect("serializes");
    let restored: AsyncCheckpoint = serde_json::from_str(&json).expect("deserializes");
    let resumed = sched.resume(&e, &restored);
    assert_eq!(resumed.ledger, full.ledger);
    assert_eq!(model_hash(&resumed.model), model_hash(&full.model));
}

// -------------------------------------------------- dropout / timeout

fn dropout_cfg() -> AsyncConfig {
    AsyncConfig {
        concurrency: 4,
        buffer_k: 2,
        staleness_exp: 0.5,
        dropout_p: 0.25,
        // Generous virtual timeout: only true dropouts are reclaimed, so
        // the reclaim count is exactly the number of dropped dispatches.
        timeout_s: Some(60.0),
        ..AsyncConfig::default()
    }
}

fn run_async_dropout(worker_threads: usize) -> AsyncOutcome {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            fedprophet_repro::tensor::parallel::set_thread_budget(0);
        }
    }
    let _guard = Guard;
    fedprophet_repro::tensor::parallel::set_thread_budget(worker_threads);
    let e = env_with(6, 41, 6);
    AsyncScheduler::new(fedprophet_repro::fl::JFat::new(), dropout_cfg()).run(&e)
}

#[test]
fn async_dropout_reclaims_slots_deterministically() {
    let a = run_async_dropout(1);
    let b = run_async_dropout(4);
    assert_eq!(a.ledger, b.ledger, "dropout draws are thread-invariant");
    assert_eq!(model_hash(&a.model), model_hash(&b.model));
    assert_eq!(a.ledger.len(), 6, "the run completes despite dropouts");
    let reclaimed: usize = a.ledger.iter().map(|r| r.timed_out).sum();
    assert!(
        reclaimed > 0,
        "dropout_p = 0.25 over 6 aggregations must lose dispatches"
    );
    // Every flush still merges exactly buffer_k delivered updates.
    for r in &a.ledger {
        assert_eq!(r.merged, 2);
        assert!(r.round_time_s > 0.0);
    }
}

#[test]
fn async_dropout_checkpoint_resumes_with_lost_dispatches_in_flight() {
    let e = env_with(5, 41, 6);
    let sched = AsyncScheduler::new(fedprophet_repro::fl::JFat::new(), dropout_cfg());
    let full = sched.run(&e);
    let ckpt = sched.run_until(
        &e,
        AsyncStopPoint {
            aggregations: 1,
            buffered: 1,
        },
    );
    let json = serde_json::to_string(&ckpt).expect("serializes");
    let restored: AsyncCheckpoint = serde_json::from_str(&json).expect("deserializes");
    let resumed = sched.resume(&e, &restored);
    assert_eq!(resumed.ledger, full.ledger);
    assert_eq!(model_hash(&resumed.model), model_hash(&full.model));
}

// ------------------------------------------------------ adaptive buffer

#[test]
fn adaptive_buffer_scales_with_staleness_within_bounds() {
    let e = env_with(6, 13, 6);
    let acfg = AsyncConfig {
        concurrency: 4,
        buffer_k: 2,
        staleness_exp: 0.5,
        adaptive_buffer: Some((1, 4)),
        ..AsyncConfig::default()
    };
    let sched = AsyncScheduler::new(fedprophet_repro::fl::JFat::new(), acfg);
    let a = sched.run(&e);
    let b = sched.run(&e);
    assert_eq!(a.ledger, b.ledger, "adaptive runs stay deterministic");
    for r in &a.ledger {
        let k = r.flush_k.expect("adaptive runs record the threshold");
        assert!(
            (1..=4).contains(&k),
            "agg {}: flush_k {k} out of bounds",
            r.agg
        );
        assert_eq!(r.merged, k, "the flush fires exactly at the threshold");
    }
    assert!(
        a.ledger.iter().any(|r| r.flush_k != Some(2)),
        "observed staleness must move the threshold at least once"
    );

    // Mid-flight resume carries the live threshold.
    let ckpt = sched.run_until(&e, AsyncStopPoint::after_agg(3));
    assert!(ckpt.cur_k.is_some());
    let json = serde_json::to_string(&ckpt).expect("serializes");
    let restored: AsyncCheckpoint = serde_json::from_str(&json).expect("deserializes");
    let resumed = sched.resume(&e, &restored);
    assert_eq!(resumed.ledger, a.ledger);
    assert_eq!(model_hash(&resumed.model), model_hash(&a.model));
}
