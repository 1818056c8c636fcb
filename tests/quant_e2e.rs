//! Quantized up-link plane regression suite.
//!
//! Five guarantees are pinned here:
//!
//! 1. **Disabled equivalence.** The plane is opt-in (a trainer wrapper):
//!    dense runs write no `quant` checkpoint key, so every pre-quant
//!    golden and committed v1 fixture stays byte-identical with zero
//!    re-pinning. The b = 32 passthrough anchors the wrapper to the
//!    dense path: same final model hash, wire bytes differing only by
//!    the 8-byte header per upload.
//! 2. **Pinned quantized ledger.** The 4-bit sync run records a pinned
//!    per-round up-link byte schedule, bit-identical at 1/2/4 worker
//!    threads (the seeded stochastic draw is counter-based, so neither
//!    thread count nor SIMD width moves a byte).
//! 3. **Cheaper virtual time.** The 8-, 4- and 2-bit async runs charge
//!    each merged upload exactly its packed wire size; each narrower
//!    code drifts further from the dense model and finishes sooner on
//!    the virtual clock; the buffer holds dequantized vectors
//!    (staleness discounts act on what the wire carried) and runs are
//!    deterministic.
//! 4. **Error-feedback lifecycle.** Residual rows stay within the LRU
//!    bound, dropouts invalidate rows with cause attribution, and the
//!    counters ride checkpoints under the `quant` key.
//! 5. **Policy-carrying checkpoints.** Checkpoints serialize the policy
//!    and residual table under the `quant` key, round-trip through JSON,
//!    resume bit-identically, and refuse to resume under a different
//!    policy with a field-named panic. Composes with the Byzantine
//!    plane: attacks corrupt the *quantized* update.

use fedprophet_repro::data::{generate, SynthConfig};
use fedprophet_repro::fl::{
    model_hash, AsyncCheckpoint, AsyncConfig, AsyncScheduler, AsyncStopPoint, AttackKind,
    AttackPlan, ByzTrainer, EventScheduler, FlConfig, FlEnv, QuantConfig, QuantTrainer, RobustRule,
    SchedConfig, SyntheticTrainer,
};
use fedprophet_repro::hwsim::{SamplingMode, CIFAR_POOL};
use fedprophet_repro::nn::models::{vgg_atom_specs, VggConfig};
use fedprophet_repro::nn::qcodec::wire_bytes;

const QUANT_SEED: u64 = 117;
const QUANT_ROUNDS: usize = 4;

fn quant_env(n_clients: usize, rounds: usize, seed: u64) -> FlEnv {
    let mut cfg = FlConfig::fast(rounds, seed);
    cfg.n_clients = n_clients;
    cfg.clients_per_round = 8.min(n_clients);
    let data = generate(&SynthConfig::tiny(4, 8), seed);
    let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16]));
    FlEnv::lazy(data, &CIFAR_POOL, SamplingMode::Balanced, specs, cfg)
}

fn async_cfg() -> AsyncConfig {
    AsyncConfig {
        concurrency: 8,
        buffer_k: 4,
        staleness_exp: 0.5,
        ..AsyncConfig::default()
    }
}

fn q4() -> QuantConfig {
    QuantConfig::new(4)
}

fn l2(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Resets the global worker budget when a test panics mid-run.
struct BudgetGuard;

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        fedprophet_repro::tensor::parallel::set_thread_budget(0);
    }
}

// --------------------------------------------------- disabled equivalence

#[test]
fn dense_checkpoints_carry_no_quant_key() {
    let env = quant_env(32, QUANT_ROUNDS, QUANT_SEED);
    let sync = serde_json::to_string(
        &EventScheduler::new(SyntheticTrainer, SchedConfig::default()).run_until(&env, 2),
    )
    .unwrap();
    assert!(!sync.contains("\"quant\""), "dense sync ckpt stays dense");
    let a = serde_json::to_string(
        &AsyncScheduler::new(SyntheticTrainer, async_cfg())
            .run_until(&env, AsyncStopPoint::after_agg(2)),
    )
    .unwrap();
    assert!(!a.contains("\"quant\""), "dense async ckpt stays dense");
}

#[test]
fn b32_passthrough_reproduces_the_dense_model() {
    let env = quant_env(32, QUANT_ROUNDS, QUANT_SEED);
    let sched = SchedConfig::default();
    let dense = EventScheduler::new(SyntheticTrainer, sched).run(&env);
    let passthrough = EventScheduler::new(
        QuantTrainer::new(SyntheticTrainer, QuantConfig::new(32)),
        sched,
    )
    .run(&env);
    // The 32-bit codes *are* the dense payload: identical training
    // trajectory, wire cost up by exactly the 8-byte header per upload.
    assert_eq!(
        model_hash(&dense.model),
        model_hash(&passthrough.model),
        "b = 32 must reproduce the dense trajectory bit-for-bit"
    );
    for (d, q) in dense.ledger.iter().zip(&passthrough.ledger) {
        assert_eq!(q.up_bytes, d.up_bytes + 8 * d.completed as u64);
    }
}

// ------------------------------------------------ pinned quantized ledger

/// Per-round `(completed, up_bytes)` of the 4-bit sync run below. Dense
/// uploads on this 1676-parameter model are 6704 B per client; 4-bit
/// chunk-256 quantization puts 874 B per client on the wire (a 7.7×
/// reduction).
const SYNC_QUANT_SCHEDULE: &[(usize, u64)] = &[(8, 6992), (8, 6992), (8, 6992), (8, 6992)];

fn quant_sync_run(workers: usize) -> (String, Vec<(usize, u64)>, String) {
    let _guard = BudgetGuard;
    fedprophet_repro::tensor::parallel::set_thread_budget(workers);
    let env = quant_env(32, QUANT_ROUNDS, QUANT_SEED);
    let out = EventScheduler::new(
        QuantTrainer::new(SyntheticTrainer, q4()),
        SchedConfig::default(),
    )
    .run(&env);
    let sched: Vec<(usize, u64)> = out
        .ledger
        .iter()
        .map(|r| (r.completed, r.up_bytes))
        .collect();
    (
        out.ledger_json(),
        sched,
        format!("{:016x}", model_hash(&out.model)),
    )
}

#[test]
fn quant4_sync_ledger_is_pinned_and_worker_invariant() {
    let (json, sched, hash) = quant_sync_run(1);
    assert_eq!(sched, SYNC_QUANT_SCHEDULE, "up-link schedule drifted");
    // The stochastic draw is a counter hash and the SIMD lanes are
    // bit-compatible with the scalar reference, so thread count must not
    // move a single ledger byte or model bit.
    for workers in [2, 4] {
        let (j, _, h) = quant_sync_run(workers);
        assert_eq!(json, j, "quantized ledger drifted at {workers} workers");
        assert_eq!(hash, h, "quantized model drifted at {workers} workers");
    }
}

// ---------------------------------------------------- cheaper virtual time

#[test]
fn quant4_async_cuts_up_bytes_4x_and_finishes_sooner() {
    let env = quant_env(32, QUANT_ROUNDS, QUANT_SEED);
    let dense = AsyncScheduler::new(SyntheticTrainer, async_cfg()).run(&env);
    let dense_params = dense.model.flat_params();
    let n = dense_params.len() as u64;
    // Every bit width below is one step further from the dense run: more
    // drift from its model, an earlier final aggregation.
    let (mut prev_drift, mut prev_clock) = (0.0f64, dense.ledger.last().unwrap().clock_s);
    for bits in [8, 4, 2] {
        let cfg = QuantConfig::new(bits);
        let sched = AsyncScheduler::new(QuantTrainer::new(SyntheticTrainer, cfg), async_cfg());
        let quant = sched.run(&env);
        // Each merged upload is charged exactly its packed wire size
        // (q4 on this 1676-parameter model: 874 B against 6704 B dense).
        let up: u64 = quant.ledger.iter().map(|r| r.up_bytes).sum();
        let merged: usize = quant.ledger.iter().map(|r| r.merged).sum();
        assert_eq!(
            up,
            merged as u64 * wire_bytes(n, bits, cfg.chunk),
            "q{bits} up-link bytes are not {merged} packed uploads"
        );
        let drift = l2(&quant.model.flat_params(), &dense_params);
        assert!(
            drift > prev_drift,
            "q{bits} drift from dense {drift} must exceed the wider code's {prev_drift}"
        );
        // Smaller uploads reach the buffer earlier.
        let clock = quant.ledger.last().unwrap().clock_s;
        assert!(
            clock < prev_clock,
            "q{bits} must finish before the wider code: {clock} vs {prev_clock}"
        );
        (prev_drift, prev_clock) = (drift, clock);
        // The buffer holds *dequantized* vectors, so clients that uploaded
        // have residuals resident (what the wire dropped, carried forward).
        assert!(
            sched.trainer.resident_rows() > 0,
            "EF rows must be resident"
        );
        // Determinism: same ledger, same model, run-to-run.
        let again =
            AsyncScheduler::new(QuantTrainer::new(SyntheticTrainer, cfg), async_cfg()).run(&env);
        assert_eq!(quant.ledger_json(), again.ledger_json());
        assert_eq!(model_hash(&quant.model), model_hash(&again.model));
    }
}

// ------------------------------------------------ error-feedback lifecycle

#[test]
fn ef_rows_respect_the_lru_bound_and_dropouts_invalidate_with_cause() {
    let env = quant_env(8, 6, QUANT_SEED);
    let mut cfg = q4();
    cfg.ef_rows = 4;
    let sched = EventScheduler::new(
        QuantTrainer::new(SyntheticTrainer, cfg),
        SchedConfig {
            dropout_p: 0.4,
            ..SchedConfig::default()
        },
    );
    let out = sched.run(&env);
    let dropped: usize = out.ledger.iter().map(|r| r.dropped_out).sum();
    assert!(dropped > 0, "a 40% dropout rate must lose someone");
    assert!(
        sched.trainer.resident_rows() <= 4,
        "resident EF rows exceed the LRU bound"
    );
    let lost = sched.trainer.losses();
    assert!(
        lost.dropout > 0,
        "dropping a client with a resident residual must count a Dropout"
    );
    assert_eq!(
        lost.timed_out + lost.outage_lost,
        0,
        "sync run has no timeouts"
    );
    // The counters ride the checkpoint under the `quant` key.
    let ckpt = EventScheduler::new(
        QuantTrainer::new(SyntheticTrainer, cfg),
        SchedConfig {
            dropout_p: 0.4,
            ..SchedConfig::default()
        },
    )
    .run_until(&env, 5);
    let json = serde_json::to_string(&ckpt).unwrap();
    assert!(json.contains("\"quant\""));
    assert!(json.contains("\"ef_rows\""));
    assert!(
        json.contains("\"dropout\""),
        "non-trivial loss counters must serialize"
    );
}

// ----------------------------------------- policy-carrying checkpoints

#[test]
fn sync_checkpoint_carries_quant_and_resumes_bit_identically() {
    let env = quant_env(32, QUANT_ROUNDS, QUANT_SEED);
    let build = || {
        EventScheduler::new(
            QuantTrainer::new(SyntheticTrainer, q4()),
            SchedConfig::default(),
        )
    };
    let full = build().run(&env);
    let ckpt = build().run_until(&env, 2);
    let json = serde_json::to_string(&ckpt).unwrap();
    assert!(
        json.contains("\"quant\""),
        "checkpoint must carry the policy"
    );
    assert!(json.contains("\"bits\""));
    let restored: fedprophet_repro::fl::SchedCheckpoint = serde_json::from_str(&json).unwrap();
    assert_eq!(json, serde_json::to_string(&restored).unwrap());
    let resumed = build().resume(&env, &restored);
    assert_eq!(full.ledger, resumed.ledger);
    assert_eq!(model_hash(&full.model), model_hash(&resumed.model));
}

#[test]
fn async_checkpoint_carries_quant_and_resumes_bit_identically() {
    let env = quant_env(32, QUANT_ROUNDS, QUANT_SEED);
    let build = || AsyncScheduler::new(QuantTrainer::new(SyntheticTrainer, q4()), async_cfg());
    let full = build().run(&env);
    let ckpt = build().run_until(&env, AsyncStopPoint::after_agg(2));
    let json = serde_json::to_string(&ckpt).unwrap();
    assert!(
        json.contains("\"quant\""),
        "checkpoint must carry the policy"
    );
    let restored: AsyncCheckpoint = serde_json::from_str(&json).unwrap();
    assert_eq!(json, serde_json::to_string(&restored).unwrap());
    let resumed = build().resume(&env, &restored);
    assert_eq!(full.ledger, resumed.ledger);
    assert_eq!(model_hash(&full.model), model_hash(&resumed.model));
}

#[test]
#[should_panic(expected = "SchedCheckpoint field `quant`")]
fn sync_resume_rejects_a_different_quant_policy() {
    let env = quant_env(32, QUANT_ROUNDS, QUANT_SEED);
    let ckpt = EventScheduler::new(
        QuantTrainer::new(SyntheticTrainer, q4()),
        SchedConfig::default(),
    )
    .run_until(&env, 2);
    EventScheduler::new(SyntheticTrainer, SchedConfig::default()).resume(&env, &ckpt);
}

#[test]
#[should_panic(expected = "AsyncCheckpoint field `quant`")]
fn async_resume_rejects_a_different_quant_policy() {
    let env = quant_env(32, QUANT_ROUNDS, QUANT_SEED);
    let ckpt = AsyncScheduler::new(QuantTrainer::new(SyntheticTrainer, q4()), async_cfg())
        .run_until(&env, AsyncStopPoint::after_agg(2));
    AsyncScheduler::new(
        QuantTrainer::new(SyntheticTrainer, QuantConfig::new(8)),
        async_cfg(),
    )
    .resume(&env, &ckpt);
}

// ------------------------------------------------- Byzantine composition

#[test]
fn byz_attack_corrupts_the_quantized_update() {
    let env = quant_env(32, QUANT_ROUNDS, QUANT_SEED);
    // ByzTrainer<QuantTrainer<..>>: quantize inside, corrupt outside —
    // the attacker flips what a hostile client would actually put on the
    // wire, and the robust rule judges exactly what the wire carried.
    let build = |rule: RobustRule| {
        EventScheduler::new(
            ByzTrainer::new(
                QuantTrainer::new(SyntheticTrainer, q4()),
                rule,
                Some(AttackPlan {
                    fraction: 0.3,
                    salt: 7,
                    kind: AttackKind::SignFlip { scale: 4.0 },
                }),
            ),
            SchedConfig::default(),
        )
    };
    let honest = EventScheduler::new(
        QuantTrainer::new(SyntheticTrainer, q4()),
        SchedConfig::default(),
    )
    .run(&env);
    let attacked = build(RobustRule::FedAvg).run(&env);
    assert_ne!(
        model_hash(&honest.model),
        model_hash(&attacked.model),
        "a 4x sign-flip through the quantized wire must move FedAvg"
    );
    let defended = build(RobustRule::MultiKrum {
        f: 2,
        m: 5,
        clip: 1.05,
    })
    .run(&env);
    let filtered: usize = defended.ledger.iter().map(|r| r.filtered.len()).sum();
    assert!(
        filtered > 0,
        "multi-Krum must filter flagged quantized updates"
    );
    // The composed stack checkpoints both planes and stays deterministic.
    let ckpt = build(RobustRule::FedAvg).run_until(&env, 2);
    let json = serde_json::to_string(&ckpt).unwrap();
    assert!(json.contains("\"byz\"") && json.contains("\"quant\""));
    let again = build(RobustRule::FedAvg).run(&env);
    assert_eq!(attacked.ledger_json(), again.ledger_json());
}
