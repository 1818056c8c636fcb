//! Cross-crate integration tests: the full FedProphet pipeline against its
//! baselines on a shared environment.

use fedprophet_repro::attack::{evaluate_robustness, ApgdConfig, PgdConfig};
use fedprophet_repro::data::{generate, partition_pathological, SynthConfig};
use fedprophet_repro::fedprophet::{FedProphet, ProphetConfig};
use fedprophet_repro::fl::{
    model_hash, DeadlinePolicy, EventScheduler, FlAlgorithm, FlConfig, FlEnv, JFat,
    PartialTraining, SchedCheckpoint, SchedConfig, SchedOutcome,
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
fn fedprophet_full_pipeline_learns_robustly() {
    let env = env(20, 99);
    let outcome = FedProphet::new(ProphetConfig::default()).run_detailed(&env);

    // Memory claim: every module fits the minimum budget (modulo the
    // single-atom exception), and the largest module is well under the
    // full model.
    assert!(outcome.partition.num_modules() >= 2);
    assert!(
        outcome.partition.max_module_mem() < env.full_mem_req(),
        "cascade must reduce peak memory"
    );

    // Robustness: the trained model beats an untrained one under attack.
    let mut model = outcome.model;
    let report = evaluate_robustness(
        &mut model,
        &env.data.test,
        &PgdConfig::fast(env.cfg.eps0),
        &ApgdConfig::fast(env.cfg.eps0),
        32,
        1,
    );
    assert!(report.clean_acc > 0.45, "clean too low: {report}");
    assert!(report.pgd_acc > 0.25, "adv too low: {report}");
    assert!(
        report.clean_acc + 0.05 >= report.pgd_acc,
        "attack ordering violated: {report}"
    );
    assert!(
        report.pgd_acc + 0.08 >= report.apgd_acc,
        "AA should not exceed PGD by much: {report}"
    );
}

#[test]
fn fedprophet_outperforms_partial_training_on_robustness() {
    // The paper's central comparative claim (Table 2): FedProphet attains
    // higher adversarial accuracy than partial-training baselines under
    // the same memory constraints.
    let env = env(12, 5);
    let fp = FedProphet::new(ProphetConfig::default()).run(&env);
    let pt = PartialTraining::heterofl().run(&env);
    let fp_adv = fp.final_val_adv().unwrap();
    let pt_adv = pt.final_val_adv().unwrap();
    assert!(
        fp_adv + 0.02 >= pt_adv,
        "FedProphet adv {fp_adv} should not trail HeteroFL {pt_adv}"
    );
}

#[test]
fn cascade_with_one_module_matches_joint_training_shape() {
    // Figure 9's right edge: with unconstrained memory FedProphet
    // degenerates to a single module — i.e. joint end-to-end FAT.
    let base = env(8, 13);
    let mut fleet = base.fleet.clone();
    for d in &mut fleet {
        d.avail_mem_bytes = 1 << 40;
    }
    let env1 = FlEnv::new(
        base.data.clone(),
        base.splits.clone(),
        fleet,
        base.reference_specs.clone(),
        base.cfg,
    );
    let fp = FedProphet::new(ProphetConfig::default()).run_detailed(&env1);
    assert_eq!(fp.partition.num_modules(), 1);
    // And a jFAT run on the same env learns comparably.
    let j = JFat::new().run(&env1);
    let fp_clean = fp.rounds.last().unwrap().val_clean;
    let j_clean = j.final_val_clean().unwrap();
    assert!(
        (fp_clean - j_clean).abs() < 0.35,
        "degenerate cascade {fp_clean} vs jFAT {j_clean}"
    );
}

#[test]
fn all_methods_run_on_one_environment() {
    let env = env(3, 21);
    let zoo = vec![
        vgg_atom_specs(&VggConfig::tiny(3, 8, 4, &[4, 8])),
        env.reference_specs.clone(),
    ];
    let algs: Vec<Box<dyn FlAlgorithm>> = vec![
        Box::new(JFat::new()),
        Box::new(PartialTraining::heterofl()),
        Box::new(PartialTraining::feddrop()),
        Box::new(PartialTraining::fedrolex()),
        Box::new(fedprophet_repro::fl::FedRbn::new()),
        Box::new(fedprophet_repro::fl::Distill::new(
            fedprophet_repro::fl::DistillVariant::FedDf,
            zoo.clone(),
            8,
        )),
        Box::new(fedprophet_repro::fl::Distill::new(
            fedprophet_repro::fl::DistillVariant::FedEt,
            zoo,
            8,
        )),
        Box::new(FedProphet::new(ProphetConfig::default())),
    ];
    for alg in algs {
        let out = alg.run(&env);
        assert!(out.history.len() >= 3, "{} too few rounds", alg.name());
        assert!(
            out.history.iter().all(|r| r.train_loss.is_finite()),
            "{} produced non-finite loss",
            alg.name()
        );
    }
}

// --------------------------------------------------------------------------
// Event-driven scheduler regression suite.
//
// The golden values below pin the *schedule* (who was selected, who
// completed, who straggled or dropped out, and the virtual round times):
// these derive purely from the f64 hwsim cost model and the seeded RNG
// streams, so they are machine-independent. Losses/accuracies and the
// final-model hash are kernel outputs and the kernel dispatches on
// runtime-detected CPU features (AVX2+FMA vs portable), so their absolute
// values are pinned *relative to each other* — identical across worker
// thread counts and across checkpoint/resume — rather than as literals.
// --------------------------------------------------------------------------

/// The scheduling policy under test: over-selection, dropout, and an
/// adaptive straggler deadline — every mechanism at once.
fn golden_sched() -> SchedConfig {
    SchedConfig {
        over_select: 1.5,
        dropout_p: 0.15,
        deadline: DeadlinePolicy::MedianMultiple(1.25),
        min_completions: 1,
    }
}

const GOLDEN_SEED: u64 = 2024;
const GOLDEN_ROUNDS: usize = 4;

/// Restores the hardware thread budget even if an assertion unwinds,
/// so a golden-value failure cannot pin sibling tests to one worker.
struct BudgetGuard;

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        fedprophet_repro::tensor::parallel::set_thread_budget(0);
    }
}

fn run_golden(worker_threads: usize) -> SchedOutcome {
    let _guard = BudgetGuard;
    fedprophet_repro::tensor::parallel::set_thread_budget(worker_threads);
    EventScheduler::new(JFat::new(), golden_sched()).run(&env(GOLDEN_ROUNDS, GOLDEN_SEED))
}

#[test]
fn scheduler_golden_run_is_thread_count_invariant() {
    let a = run_golden(1);
    let b = run_golden(2);
    let c = run_golden(4);

    // Bit-identical ledger and final model at every worker budget.
    assert_eq!(a.ledger, b.ledger, "1 vs 2 workers");
    assert_eq!(a.ledger, c.ledger, "1 vs 4 workers");
    let h = model_hash(&a.model);
    assert_eq!(h, model_hash(&b.model), "final-model hash, 1 vs 2 workers");
    assert_eq!(h, model_hash(&c.model), "final-model hash, 1 vs 4 workers");

    // The golden schedule: (selected, completed, stragglers, dropped_out)
    // per round under seed 2024 — pure cost-model arithmetic.
    let schedule: Vec<(usize, usize, usize, usize)> = a
        .ledger
        .iter()
        .map(|r| (r.selected, r.completed, r.stragglers, r.dropped_out))
        .collect();
    assert_eq!(schedule, GOLDEN_SCHEDULE, "golden participation schedule");

    // The golden virtual timeline (deadline-clipped round durations).
    for (r, want) in a.ledger.iter().zip(GOLDEN_ROUND_TIMES) {
        assert!(
            ((r.round_time_s - want) / want).abs() < 1e-12,
            "round {} time {} vs golden {want}",
            r.round,
            r.round_time_s
        );
    }
    let clock: f64 = a.ledger.iter().map(|r| r.round_time_s).sum();
    assert!((a.ledger.last().unwrap().clock_s - clock).abs() < 1e-9);

    // What the policy is for: over-selection plus the median deadline
    // finish the same rounds in well under the lockstep barrier's
    // virtual time (≈ ×4.7 on this fleet; 1.5× is the floor).
    let lockstep = EventScheduler::new(JFat::new(), SchedConfig::default())
        .run(&env(GOLDEN_ROUNDS, GOLDEN_SEED))
        .virtual_time_s();
    assert!(
        1.5 * a.virtual_time_s() <= lockstep,
        "scheduled {} s vs lockstep {lockstep} s: under the 1.5x floor",
        a.virtual_time_s()
    );

    // Structural invariants of every ledger row.
    for r in &a.ledger {
        assert_eq!(r.selected, r.completed + r.stragglers + r.dropped_out);
        assert!(r.completed >= 1, "progress guarantee");
        assert!(r.train_loss.is_finite());
        assert!(r.participation_weight > 0.0);
    }

    // Re-running the same seed reproduces the hash; a different seed
    // diverges (the fingerprint actually discriminates).
    assert_eq!(model_hash(&run_golden(1).model), h);
    let other = EventScheduler::new(JFat::new(), golden_sched()).run(&env(GOLDEN_ROUNDS, 7));
    assert_ne!(model_hash(&other.model), h);

    // Emit the ledger as a JSON artifact for CI.
    if let Ok(path) = std::env::var("FP_SCHED_METRICS") {
        std::fs::write(path, a.ledger_json()).expect("write metrics artifact");
    }
}

/// Golden participation schedule for seed 2024: 6 clients selected per
/// round (C=4 over-selected ×1.5); round 0 cuts three stragglers at the
/// median deadline, rounds 1–3 each lose one client to dropout and two
/// to the deadline. (Re-pinned when dispatch latency gained up/down-link
/// transfer and availability moved to per-(round, client) streams.)
const GOLDEN_SCHEDULE: [(usize, usize, usize, usize); GOLDEN_ROUNDS] =
    [(6, 3, 3, 0), (6, 3, 2, 1), (6, 3, 2, 1), (6, 3, 2, 1)];

/// Golden virtual round durations (seconds) for seed 2024 — deadline- or
/// target-clipped close times of each round's event queue. Written at
/// full bit precision (18 digits) so the 1e-12 relative comparison
/// round-trips exactly.
#[allow(clippy::excessive_precision)]
const GOLDEN_ROUND_TIMES: [f64; GOLDEN_ROUNDS] = [
    4.98262259332107459e-5,
    9.14019018945031191e-5,
    4.62520476312607286e-5,
    7.06970823694219293e-5,
];

#[test]
fn checkpoint_resume_is_bit_identical() {
    let e = env(6, 77);
    let sched = EventScheduler::new(JFat::new(), golden_sched());
    let full = sched.run(&e);

    // Interrupt after round 3, round-trip the checkpoint through JSON
    // (as a real deployment would persist it), resume to completion.
    let ckpt = sched.run_until(&e, 3);
    assert_eq!(ckpt.ledger.len(), 3);
    assert_eq!(&ckpt.ledger[..], &full.ledger[..3], "prefix rounds agree");
    let json = serde_json::to_string(&ckpt).expect("checkpoint serializes");
    let restored: SchedCheckpoint = serde_json::from_str(&json).expect("checkpoint deserializes");
    let resumed = sched.resume(&e, &restored);

    assert_eq!(resumed.ledger.len(), full.ledger.len());
    assert_eq!(
        &resumed.ledger[3..],
        &full.ledger[3..],
        "rounds k+1..n must be bit-identical after resume"
    );
    assert_eq!(resumed.ledger, full.ledger);
    assert_eq!(
        model_hash(&resumed.model),
        model_hash(&full.model),
        "final model must be bit-identical after resume"
    );
    assert!((resumed.virtual_time_s() - full.virtual_time_s()).abs() < 1e-12);
}

#[test]
#[should_panic(expected = "different master seed")]
fn resume_rejects_mismatched_seed() {
    let e = env(3, 5);
    let sched = EventScheduler::new(JFat::new(), SchedConfig::default());
    let ckpt = sched.run_until(&e, 1);
    let other = env(3, 6);
    let _ = sched.resume(&other, &ckpt);
}

#[test]
#[should_panic(expected = "different scheduling policy")]
fn resume_rejects_mismatched_policy() {
    let e = env(3, 5);
    let ckpt = EventScheduler::new(JFat::new(), golden_sched()).run_until(&e, 1);
    let _ = EventScheduler::new(JFat::new(), SchedConfig::default()).resume(&e, &ckpt);
}

#[test]
#[should_panic(expected = "different algorithm")]
fn resume_rejects_mismatched_algorithm() {
    let e = env(3, 5);
    let ckpt = EventScheduler::new(JFat::new(), SchedConfig::default()).run_until(&e, 1);
    let _ = EventScheduler::new(fedprophet_repro::fl::FedRbn::new(), SchedConfig::default())
        .resume(&e, &ckpt);
}

#[test]
fn latency_accounting_is_consistent_between_runs() {
    let env = env(6, 33);
    let a = FedProphet::new(ProphetConfig::default()).run_detailed(&env);
    let b = FedProphet::new(ProphetConfig::default()).run_detailed(&env);
    assert_eq!(
        a.total_latency().total(),
        b.total_latency().total(),
        "latency model must be deterministic"
    );
    assert!(a.total_latency().compute_s > 0.0);
}
