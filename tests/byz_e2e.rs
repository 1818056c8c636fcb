//! Byzantine-client plane regression suite.
//!
//! Four guarantees are pinned here:
//!
//! 1. **Honest equivalence.** A `ByzTrainer` under `RobustRule::FedAvg`
//!    with no (effective) attackers reproduces the unwrapped trainer
//!    bit-for-bit — ledger JSON, final model hash, and checkpoint JSON
//!    (no `byz` key) — for both schedulers, so every pre-Byzantine
//!    golden stays meaningful.
//! 2. **Pinned filtering.** Under a seeded attack plan, each robust rule
//!    filters an exact, pinned set of clients per merge — recorded in
//!    the ledger with reasons, bit-identical at 1/2/4 worker threads.
//! 3. **Defense effectiveness.** A sign-flip attack drags the plain
//!    FedAvg model far from the honest trajectory; the trimmed mean
//!    holds it closer, and multi-Krum closest by filtering the flagged
//!    clients.
//! 4. **Policy-carrying checkpoints.** Checkpoints serialize the rule +
//!    plan under the `byz` key, round-trip through JSON, resume
//!    bit-identically, and refuse to resume under a different policy
//!    with a field-named panic.

use std::io::Write as _;

use fedprophet_repro::data::{generate, SynthConfig};
use fedprophet_repro::fl::{
    model_hash, AsyncCheckpoint, AsyncConfig, AsyncScheduler, AsyncStopPoint, AttackKind,
    AttackPlan, ByzTrainer, EventScheduler, FlConfig, FlEnv, RobustRule, SchedConfig,
    SyntheticTrainer,
};
use fedprophet_repro::hwsim::{SamplingMode, CIFAR_POOL};
use fedprophet_repro::nn::models::{vgg_atom_specs, VggConfig};

const BYZ_SEED: u64 = 91;
const BYZ_ROUNDS: usize = 3;

fn byz_env(n_clients: usize, rounds: usize, seed: u64) -> FlEnv {
    let mut cfg = FlConfig::fast(rounds, seed);
    cfg.n_clients = n_clients;
    cfg.clients_per_round = 8.min(n_clients);
    let data = generate(&SynthConfig::tiny(4, 8), seed);
    let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16]));
    FlEnv::lazy(data, &CIFAR_POOL, SamplingMode::Balanced, specs, cfg)
}

/// The seeded hostile plan every attack test runs under: ~30% of the
/// fleet flips its update about the dispatched parameters, amplified 4×.
fn sign_flip_plan() -> AttackPlan {
    AttackPlan {
        fraction: 0.3,
        salt: 7,
        kind: AttackKind::SignFlip { scale: 4.0 },
    }
}

fn krum_rule() -> RobustRule {
    RobustRule::MultiKrum {
        f: 2,
        m: 5,
        clip: 1.05,
    }
}

fn async_cfg() -> AsyncConfig {
    AsyncConfig {
        concurrency: 8,
        buffer_k: 4,
        staleness_exp: 0.5,
        ..AsyncConfig::default()
    }
}

fn l2(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        .sqrt()
}

// --------------------------------------------------- honest equivalence

#[test]
fn fedavg_with_zero_attackers_is_bit_identical_to_honest_sync() {
    let env = byz_env(32, BYZ_ROUNDS, BYZ_SEED);
    let sched = SchedConfig::default();
    let honest = EventScheduler::new(SyntheticTrainer, sched).run(&env);
    // Both the rule-only wrapper and an explicit zero-fraction plan are
    // trivial policies: they must not perturb a single byte.
    for plan in [
        None,
        Some(AttackPlan {
            fraction: 0.0,
            ..sign_flip_plan()
        }),
    ] {
        let wrapped = EventScheduler::new(
            ByzTrainer::new(SyntheticTrainer, RobustRule::FedAvg, plan),
            sched,
        )
        .run(&env);
        assert_eq!(honest.ledger, wrapped.ledger);
        assert_eq!(honest.ledger_json(), wrapped.ledger_json());
        assert_eq!(model_hash(&honest.model), model_hash(&wrapped.model));
    }
    // Checkpoints agree byte-for-byte as well: a trivial policy writes
    // no `byz` key, and an honest merge writes no `filtered` field.
    let a = serde_json::to_string(&EventScheduler::new(SyntheticTrainer, sched).run_until(&env, 2))
        .unwrap();
    let b = serde_json::to_string(
        &EventScheduler::new(
            ByzTrainer::new(SyntheticTrainer, RobustRule::FedAvg, None),
            sched,
        )
        .run_until(&env, 2),
    )
    .unwrap();
    assert_eq!(a, b);
    assert!(!a.contains("\"byz\""), "trivial policy writes no byz key");
    assert!(!a.contains("\"filtered\""));
}

#[test]
fn fedavg_with_zero_attackers_is_bit_identical_to_honest_async() {
    let env = byz_env(32, BYZ_ROUNDS, BYZ_SEED);
    let honest = AsyncScheduler::new(SyntheticTrainer, async_cfg()).run(&env);
    let wrapped = AsyncScheduler::new(
        ByzTrainer::new(SyntheticTrainer, RobustRule::FedAvg, None),
        async_cfg(),
    )
    .run(&env);
    assert_eq!(honest.ledger, wrapped.ledger);
    assert_eq!(honest.ledger_json(), wrapped.ledger_json());
    assert_eq!(model_hash(&honest.model), model_hash(&wrapped.model));
    let a = serde_json::to_string(
        &AsyncScheduler::new(SyntheticTrainer, async_cfg())
            .run_until(&env, AsyncStopPoint::after_agg(2)),
    )
    .unwrap();
    let b = serde_json::to_string(
        &AsyncScheduler::new(
            ByzTrainer::new(SyntheticTrainer, RobustRule::FedAvg, None),
            async_cfg(),
        )
        .run_until(&env, AsyncStopPoint::after_agg(2)),
    )
    .unwrap();
    assert_eq!(a, b);
    assert!(!a.contains("\"byz\""), "trivial policy writes no byz key");
}

// ------------------------------------------------------ pinned filtering

/// Resets the global worker budget when a test panics mid-run.
struct BudgetGuard;

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        fedprophet_repro::tensor::parallel::set_thread_budget(0);
    }
}

/// The golden filtered-client schedule under [`sign_flip_plan`] on the
/// seed-91 fleet, where the plan flags clients {1, 14, 25, 26, 28, 29}:
/// `(round, client, reason)` plus the per-round norm-clip count.
///
/// Multi-Krum (f=2, m=5) drops three of eight survivors per round — the
/// attackers present plus the honest stragglers of the score ordering —
/// and clips exactly the attackers (norm inflated by the ×4 sign flip).
const KRUM_FILTERED: &[(usize, usize, &str)] = &[
    (0, 20, "krum"),
    (0, 28, "krum"),
    (0, 29, "krum"),
    (1, 14, "krum"),
    (1, 15, "krum"),
    (1, 28, "krum"),
    (2, 14, "krum"),
    (2, 23, "krum"),
    (2, 27, "krum"),
];
const KRUM_CLIPPED: &[usize] = &[2, 2, 1];

/// Coordinate-wise trimmed mean (trim=0.25) filters exactly the
/// attackers that survived each round — no honest client is majority-
/// trimmed — and never norm-clips.
const TRIM_FILTERED: &[(usize, usize, &str)] = &[
    (0, 28, "trimmed"),
    (0, 29, "trimmed"),
    (1, 14, "trimmed"),
    (1, 28, "trimmed"),
    (2, 14, "trimmed"),
];

/// One attacked run's evidence: ledger JSON, the `(round, client,
/// reason)` filtering schedule, and the per-round clip counts.
type Evidence = (String, Vec<(usize, usize, &'static str)>, Vec<usize>);

fn filtered_schedule(rule: RobustRule, worker_threads: usize) -> Evidence {
    let _guard = BudgetGuard;
    fedprophet_repro::tensor::parallel::set_thread_budget(worker_threads);
    let env = byz_env(32, BYZ_ROUNDS, BYZ_SEED);
    let out = EventScheduler::new(
        ByzTrainer::new(SyntheticTrainer, rule, Some(sign_flip_plan())),
        SchedConfig::default(),
    )
    .run(&env);
    let mut schedule = Vec::new();
    let mut clipped = Vec::new();
    for r in &out.ledger {
        schedule.extend(
            r.filtered
                .iter()
                .map(|f| (r.round, f.client, f.reason.as_str())),
        );
        clipped.push(r.clip_applied);
    }
    (out.ledger_json(), schedule, clipped)
}

#[test]
fn robust_rules_filter_a_pinned_client_set_at_any_worker_count() {
    let attackers = sign_flip_plan().attackers(BYZ_SEED, 32);
    assert_eq!(attackers, vec![1, 14, 25, 26, 28, 29]);

    let (krum_json, krum, krum_clips) = filtered_schedule(krum_rule(), 1);
    assert_eq!(krum, KRUM_FILTERED);
    assert_eq!(krum_clips, KRUM_CLIPPED);
    let (trim_json, trim, trim_clips) =
        filtered_schedule(RobustRule::TrimmedMean { trim: 0.25 }, 1);
    assert_eq!(trim, TRIM_FILTERED);
    assert_eq!(trim_clips, vec![0, 0, 0]);
    // The trimmed-mean rule filtered *only* attackers; Krum filtered
    // every attacker present plus pinned honest stragglers.
    for (_, client, _) in TRIM_FILTERED {
        assert!(attackers.contains(client));
    }
    for round in 0..BYZ_ROUNDS {
        let in_round: Vec<usize> = KRUM_FILTERED
            .iter()
            .filter(|(r, _, _)| *r == round)
            .map(|(_, c, _)| *c)
            .collect();
        assert!(in_round.iter().any(|c| attackers.contains(c)));
    }

    // Worker-thread budget must not move a single ledger byte.
    for workers in [2, 4] {
        let (json, _, _) = filtered_schedule(krum_rule(), workers);
        assert_eq!(krum_json, json, "krum ledger drifted at {workers} workers");
        let (json, _, _) = filtered_schedule(RobustRule::TrimmedMean { trim: 0.25 }, workers);
        assert_eq!(trim_json, json, "trim ledger drifted at {workers} workers");
    }

    // CI publishes the filtered-client ledger as a build artifact.
    if let Ok(path) = std::env::var("FP_BYZ_LEDGER_JSONL") {
        let mut f = std::fs::File::create(&path).expect("create byz ledger artifact");
        for (label, json) in [("multi_krum", &krum_json), ("trimmed_mean", &trim_json)] {
            writeln!(f, "{{\"rule\":\"{label}\",\"ledger\":{json}}}")
                .expect("write byz ledger artifact");
        }
    }
}

#[test]
fn async_robust_rule_applies_to_staleness_discounted_flushes() {
    let env = byz_env(32, BYZ_ROUNDS, BYZ_SEED);
    let run = |rule| {
        AsyncScheduler::new(
            ByzTrainer::new(SyntheticTrainer, rule, Some(sign_flip_plan())),
            async_cfg(),
        )
        .run(&env)
    };
    let krum = run(krum_rule());
    // Every aggregation recorded against the same staleness-weighted
    // buffer contents: the rule sees buffer_k=4 updates per flush, and
    // with f=2, m=5 > n=4 the degenerate guard passes everyone through
    // (clipping still applies), so no async flush reports filtering.
    assert!(!krum.ledger.is_empty());
    assert!(krum.ledger.iter().all(|r| r.filtered.is_empty()));
    let trim = run(RobustRule::TrimmedMean { trim: 0.25 });
    assert!(!trim.ledger.is_empty());
    // trim=0.25 on a 4-update buffer trims g=1 coordinate per side, so
    // half of every buffer is trimmed per coordinate and the majority
    // flag fires on honest outliers too — the pinned `(agg, client)`
    // schedule documents exactly that (client 25 is the only flagged
    // attacker that reached a buffer here).
    let filtered: Vec<(usize, usize)> = trim
        .ledger
        .iter()
        .flat_map(|r| r.filtered.iter().map(|f| (r.agg, f.client)))
        .collect();
    assert_eq!(
        filtered,
        vec![(0, 4), (0, 22), (0, 27), (1, 5), (1, 25), (2, 15), (2, 16)]
    );
    // And the two defended models diverge from each other deterministically.
    assert_ne!(model_hash(&krum.model), model_hash(&trim.model));
}

// ------------------------------------------------- defense effectiveness

#[test]
fn multi_krum_holds_the_model_near_the_honest_trajectory() {
    let env = byz_env(32, BYZ_ROUNDS, BYZ_SEED);
    let sched = SchedConfig::default();
    let honest = EventScheduler::new(SyntheticTrainer, sched)
        .run(&env)
        .model
        .flat_params();
    let attacked = |rule| {
        EventScheduler::new(
            ByzTrainer::new(SyntheticTrainer, rule, Some(sign_flip_plan())),
            sched,
        )
        .run(&env)
        .model
        .flat_params()
    };
    let fedavg_dist = l2(&attacked(RobustRule::FedAvg), &honest);
    let trimmed_dist = l2(&attacked(RobustRule::TrimmedMean { trim: 0.25 }), &honest);
    let krum_dist = l2(&attacked(krum_rule()), &honest);
    assert!(
        krum_dist < fedavg_dist / 2.0,
        "multi-Krum ({krum_dist:.6}) should at least halve the FedAvg \
         drift under attack ({fedavg_dist:.6})"
    );
    // Each robust rule resists the sign-flip, the filtering one most.
    assert!(
        krum_dist < trimmed_dist && trimmed_dist < fedavg_dist,
        "drift order multi-Krum ({krum_dist:.6}) < trimmed mean \
         ({trimmed_dist:.6}) < FedAvg ({fedavg_dist:.6})"
    );
}

// ----------------------------------------- policy-carrying checkpoints

#[test]
fn sync_checkpoint_carries_policy_and_resumes_bit_identically() {
    let env = byz_env(32, BYZ_ROUNDS, BYZ_SEED);
    let sched = SchedConfig::default();
    let trainer = || {
        ByzTrainer::new(
            SyntheticTrainer,
            RobustRule::TrimmedMean { trim: 0.25 },
            Some(sign_flip_plan()),
        )
    };
    let full = EventScheduler::new(trainer(), sched).run(&env);
    let ckpt = EventScheduler::new(trainer(), sched).run_until(&env, 2);
    let json = serde_json::to_string(&ckpt).unwrap();
    assert!(json.contains("\"byz\""), "checkpoint must carry the policy");
    assert!(json.contains("\"trimmed_mean\""));
    assert!(json.contains("\"sign_flip\""));
    let restored: fedprophet_repro::fl::SchedCheckpoint = serde_json::from_str(&json).unwrap();
    assert_eq!(json, serde_json::to_string(&restored).unwrap());
    let resumed = EventScheduler::new(trainer(), sched).resume(&env, &restored);
    assert_eq!(full.ledger, resumed.ledger);
    assert_eq!(model_hash(&full.model), model_hash(&resumed.model));
}

#[test]
fn async_checkpoint_carries_policy_and_resumes_bit_identically() {
    let env = byz_env(32, BYZ_ROUNDS, BYZ_SEED);
    let trainer = || ByzTrainer::new(SyntheticTrainer, krum_rule(), Some(sign_flip_plan()));
    let full = AsyncScheduler::new(trainer(), async_cfg()).run(&env);
    let ckpt =
        AsyncScheduler::new(trainer(), async_cfg()).run_until(&env, AsyncStopPoint::after_agg(2));
    let json = serde_json::to_string(&ckpt).unwrap();
    assert!(json.contains("\"byz\""), "checkpoint must carry the policy");
    assert!(json.contains("\"multi_krum\""));
    let restored: AsyncCheckpoint = serde_json::from_str(&json).unwrap();
    assert_eq!(json, serde_json::to_string(&restored).unwrap());
    let resumed = AsyncScheduler::new(trainer(), async_cfg()).resume(&env, &restored);
    assert_eq!(full.ledger, resumed.ledger);
    assert_eq!(model_hash(&full.model), model_hash(&resumed.model));
}

#[test]
#[should_panic(expected = "SchedCheckpoint field `byz`")]
fn sync_resume_rejects_a_different_byzantine_policy() {
    let env = byz_env(32, BYZ_ROUNDS, BYZ_SEED);
    let sched = SchedConfig::default();
    let ckpt = EventScheduler::new(
        ByzTrainer::new(SyntheticTrainer, krum_rule(), Some(sign_flip_plan())),
        sched,
    )
    .run_until(&env, 2);
    EventScheduler::new(
        ByzTrainer::new(SyntheticTrainer, RobustRule::FedAvg, None),
        sched,
    )
    .resume(&env, &ckpt);
}

#[test]
#[should_panic(expected = "AsyncCheckpoint field `byz`")]
fn async_resume_rejects_a_different_byzantine_policy() {
    let env = byz_env(32, BYZ_ROUNDS, BYZ_SEED);
    let ckpt = AsyncScheduler::new(
        ByzTrainer::new(SyntheticTrainer, krum_rule(), Some(sign_flip_plan())),
        async_cfg(),
    )
    .run_until(&env, AsyncStopPoint::after_agg(2));
    AsyncScheduler::new(
        ByzTrainer::new(
            SyntheticTrainer,
            RobustRule::TrimmedMean { trim: 0.25 },
            None,
        ),
        async_cfg(),
    )
    .resume(&env, &ckpt);
}
