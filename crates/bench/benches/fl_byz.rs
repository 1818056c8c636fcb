//! Robust aggregation under a seeded Byzantine fleet.
//!
//! Two reports come out of this bench:
//!
//! * criterion wall-clock timings of driving a 256-client fleet through
//!   the event scheduler under a 30 % sign-flip attack, once per robust
//!   rule (FedAvg passthrough, coordinate-wise trimmed mean, norm-clipped
//!   multi-Krum) — the price of robustness is the rule's own arithmetic,
//!   so the three medians bound its overhead directly — plus the
//!   trimmed-mean kernel alone at `fpbench`'s flush shape;
//! * the accuracy accounting the Byzantine plane exists for: per rule,
//!   the final clean validation accuracy, the parameter drift from the
//!   honest (attack-free) trajectory, and the ledger totals of filtered
//!   clients and norm-clipped updates. Written to `$FP_BYZ_BENCH_JSON`
//!   (default `BENCH_fl_byz.json`); the `"wall"` section feeds the
//!   `bench_check` regression gate like every other virtual-time report.

use criterion::{criterion_group, criterion_main, take_results, Criterion};
use fp_data::{generate, SynthConfig};
use fp_fl::aggregate::trimmed_mean;
use fp_fl::{
    model_hash, AttackKind, AttackPlan, ByzTrainer, EventScheduler, FlConfig, FlEnv, RobustRule,
    SchedConfig, SchedOutcome, SyntheticTrainer,
};
use fp_hwsim::{SamplingMode, CIFAR_POOL};
use fp_nn::models::{vgg_atom_specs, VggConfig};

const FLEET: usize = 256;
const ROUNDS: usize = 8;
const PER_ROUND: usize = 16;
const SEED: u64 = 67;

fn env() -> FlEnv {
    let mut cfg = FlConfig::fast(ROUNDS, SEED);
    cfg.n_clients = FLEET;
    cfg.clients_per_round = PER_ROUND;
    let data = generate(&SynthConfig::tiny(4, 8), SEED);
    let specs = vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[8, 16]));
    FlEnv::lazy(data, &CIFAR_POOL, SamplingMode::Balanced, specs, cfg)
}

fn plan() -> AttackPlan {
    AttackPlan {
        fraction: 0.3,
        salt: 7,
        kind: AttackKind::SignFlip { scale: 4.0 },
    }
}

fn rules() -> [(&'static str, RobustRule); 3] {
    [
        ("fed_avg", RobustRule::FedAvg),
        ("trimmed_mean", RobustRule::TrimmedMean { trim: 0.25 }),
        (
            "multi_krum",
            RobustRule::MultiKrum {
                f: 4,
                m: 10,
                clip: 1.05,
            },
        ),
    ]
}

fn run_attacked(env: &FlEnv, rule: RobustRule) -> SchedOutcome {
    EventScheduler::new(
        ByzTrainer::new(SyntheticTrainer, rule, Some(plan())),
        SchedConfig::default(),
    )
    .run(env)
}

fn bench_wall(c: &mut Criterion) {
    let env = env();
    for (name, rule) in rules() {
        c.bench_function(&format!("fl_byz/{name}_256_wall_8_rounds"), |b| {
            b.iter(|| std::hint::black_box(run_attacked(&env, rule)))
        });
    }
}

/// The trimmed-mean kernel alone at the shape `fpbench`'s
/// `fleet_async_planes` flushes: 16 buffered updates of the 24 276-parameter
/// payload, a quarter trimmed from each end.
fn bench_kernel(c: &mut Criterion) {
    const N: usize = 16;
    const LEN: usize = 24_276;
    let updates: Vec<(usize, Vec<f32>)> = (0..N)
        .map(|i| {
            let v = (0..LEN).map(|j| ((j * 31 + i * 17) % 101) as f32 * (1.0 + i as f32 * 1e-3));
            (i, v.collect())
        })
        .collect();
    let weights = [1.0f32; N];
    c.bench_function("fl_byz/trimmed_mean_16x24276", |b| {
        b.iter(|| std::hint::black_box(trimmed_mean(&updates, &weights, N / 4)))
    });
}

fn l2(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        .sqrt()
}

fn report_byz(_c: &mut Criterion) {
    let env = env();
    let mut honest = EventScheduler::new(SyntheticTrainer, SchedConfig::default()).run(&env);
    let honest_params = honest.model.flat_params();
    let attackers = plan().attackers(SEED, FLEET).len();

    let mut entries = Vec::new();
    for (name, rule) in rules() {
        let mut out = run_attacked(&env, rule);
        // Bit-for-bit repeatability is part of the contract being priced.
        assert_eq!(
            model_hash(&out.model),
            model_hash(&run_attacked(&env, rule).model)
        );
        let filtered: usize = out.ledger.iter().map(|r| r.filtered.len()).sum();
        let clipped: usize = out.ledger.iter().map(|r| r.clip_applied).sum();
        let drift = l2(&out.model.flat_params(), &honest_params);
        entries.push(format!(
            "    {{\"rule\": \"{name}\", \"val_clean\": {:.6}, \"drift_from_honest\": {:.6}, \
             \"filtered\": {filtered}, \"clip_applied\": {clipped}}}",
            env.val_clean(&mut out.model, 64),
            drift,
        ));
    }

    let wall: Vec<String> = take_results()
        .iter()
        .map(|r| {
            format!(
                "  {{\"id\": \"{}\", \"median_ns\": {:.1}}}",
                r.id, r.median_ns
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"config\": {{\"env\": \"fleet_lazy_256\", \"trainer\": \"Synthetic\", \
         \"n_clients\": {FLEET}, \"clients_per_round\": {PER_ROUND}, \"rounds\": {ROUNDS}, \
         \"attack\": \"sign_flip_x4\", \"attack_fraction\": 0.3, \"attackers\": {attackers}, \
         \"honest_val_clean\": {:.6}}},\n  \
         \"byz\": [\n{}\n  ],\n  \
         \"wall\": [\n{}\n  ]\n}}\n",
        env.val_clean(&mut honest.model, 64),
        entries.join(",\n"),
        wall.join(",\n")
    );
    let path = std::env::var("FP_BYZ_BENCH_JSON").unwrap_or_else(|_| "BENCH_fl_byz.json".into());
    std::fs::write(&path, &json).expect("write fl_byz report");
    println!(
        "fl_byz: {FLEET}-client fleet, {attackers} attackers, {} rules priced, report -> {path}",
        rules().len()
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_wall, bench_kernel, report_byz
}
criterion_main!(benches);
